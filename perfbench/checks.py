"""Correctness checks on the program's outputs. Each returns a list of
error strings (empty when the outputs are correct). selftest.py feeds each
one doctored inputs to show it can fail."""

FAMILIES = ("chord", "gossip", "flower", "squirrel", "other", "nack")
MIN_BODY = 1024
MAX_BODY = 17 * 1024


def sim_trial(t):
    """Invariants of one simulator trial's outputs."""
    errors = []
    alive = t["initial_directories"] + t["churn_arrivals"] - t["churn_failures"]
    if alive != t["final_population"]:
        errors.append(
            f"population: {t['initial_directories']} initial + "
            f"{t['churn_arrivals']} arrivals - {t['churn_failures']} failures "
            f"= {alive}, but {t['final_population']} peers are alive")
    if t["queries"] <= 0:
        errors.append("no query was resolved")
    if t["hits"] > t["queries"]:
        errors.append(f"hits {t['hits']} > queries {t['queries']}")
    if t["lookup_count"] != t["queries"]:
        errors.append(f"lookup histogram holds {t['lookup_count']} samples "
                      f"for {t['queries']} queries")
    if t["transfer_hits_count"] != t["hits"]:
        errors.append(f"{t['transfer_hits_count']} hit transfers for "
                      f"{t['hits']} hits")
    if t["max_transfer_hits_ms"] > t["max_link_latency_ms"]:
        errors.append(f"a hit travelled {t['max_transfer_hits_ms']} ms, more "
                      f"than the largest link ({t['max_link_latency_ms']} ms)")
    nacks = t["traffic"]["nack"]["messages"]
    dropped = t["traffic"]["dropped"]["messages"]
    if nacks > dropped:
        errors.append(f"{nacks} NACKs for only {dropped} dead-receiver drops")
    if t["queries"] > 0 and abs(t["hit_ratio"] - t["hits"] / t["queries"]) > 1e-6:
        errors.append("hit_ratio disagrees with hits / queries")
    return errors


def sim_account(a, t):
    """Every query a trial issued is resolved, in flight, abandoned by its
    dying session or lost, and the trace saw each one begin and resolve."""
    errors = []
    if a["issued"] != t["queries_issued"]:
        errors.append(f"account of {a['issued']} queries, program issued "
                      f"{t['queries_issued']}")
    if a["traced"] != a["issued"]:
        errors.append(f"trace saw {a['traced']} queries begin, "
                      f"{a['issued']} were issued")
    if a["resolved"] != t["queries"]:
        errors.append(f"trace saw {a['resolved']} queries resolve, metrics "
                      f"recorded {t['queries']}")
    parts = a["resolved"] + a["in_flight"] + a["died"] + a["lost"]
    if parts != a["issued"]:
        errors.append(f"resolved + in flight + died + lost = {parts}, "
                      f"{a['issued']} issued")
    return errors


def sim_seam(seam, traffic):
    """The benchmark's tally at the transport seam equals the program's
    per-family counters."""
    errors = []
    for fam in FAMILIES:
        for key in ("messages", "bytes"):
            if seam[fam][key] != traffic[fam][key]:
                errors.append(f"seam tally {fam}.{key} = {seam[fam][key]}, "
                              f"program counts {traffic[fam][key]}")
    return errors


def sim_traced_matches(traced, untraced):
    """Tracing and the counting transport must not change the simulation."""
    return [f"traced run differs in {k}: {traced[k]} vs {untraced[k]}"
            for k in untraced if traced.get(k) != untraced[k]]


def live_responses(shapes):
    """shapes: every distinct response (ws, obj, status, length, source,
    hit, lookup) with its count, as the client and the probe saw them."""
    errors = []
    length_of = {}
    for s in shapes:
        where = f"GET /{s['ws']}/{s['obj']}"
        if s["status"] != 200:
            continue  # a failed request, counted as such, not a wrong output
        length = s["length"]
        if not MIN_BODY <= length <= MAX_BODY:
            errors.append(f"{where}: body of {length} bytes outside 1-17 KiB")
        if length_of.setdefault((s["ws"], s["obj"]), length) != length:
            errors.append(f"{where}: body of {length} bytes, elsewhere "
                          f"{length_of[(s['ws'], s['obj'])]}")
        source = s["source"]
        if source not in ("petal", "directory", "origin"):
            errors.append(f"{where}: unknown source {source!r}")
        elif s["hit"] != ("0" if source == "origin" else "1"):
            errors.append(f"{where}: X-FlowerCDN-Hit {s['hit']!r} from {source}")
        try:
            float(s["lookup"])
        except ValueError:
            errors.append(f"{where}: bad X-FlowerCDN-Lookup-Ms {s['lookup']!r}")
    return errors


def live_counts(client, served):
    """The client's per-source counts equal the gateways' served counters
    (an own-store hit is 'local' to the client, 'petal' to the gateway)."""
    mine = {"petal": client.get("local", 0) + client.get("petal", 0),
            "directory": client.get("directory", 0),
            "origin": client.get("origin", 0)}
    return [f"client saw {mine[k]} {k} responses, gateways served {served[k]}"
            for k in mine if mine[k] != served[k]]


def live_exit(exit_codes, polls):
    errors = [f"rank {i} exited with {c}" for i, c in enumerate(exit_codes)
              if c != 0]
    errors += [f"rank {i} still running" for i, p in enumerate(polls)
               if p is None]
    return errors
