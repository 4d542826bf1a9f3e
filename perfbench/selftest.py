#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks: each check passes on a
correct result and fails on a doctored one. No build needed:

    python3 perfbench/selftest.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def family(messages, nbytes):
    return {"messages": messages, "bytes": nbytes}


# Figures of a real flower_paper trial (P = 5000, 24 h): 600 initial
# directory peers + 120457 arrivals - 116109 failures = 4948 alive.
TRIAL = {
    "queries": 70639, "hits": 32706, "hit_ratio": 32706 / 70639,
    "mean_lookup_ms": 346.3, "lookup_count": 70639, "lookup_sum_ms": 24462285.0,
    "p50_lookup_ms": 150.0, "p99_lookup_ms": 4503.0,
    "transfer_hits_count": 32706, "max_transfer_hits_ms": 263.0,
    "max_link_latency_ms": 500.0, "queries_issued": 70642,
    "initial_directories": 600, "churn_arrivals": 120457,
    "churn_failures": 116109, "final_population": 4948,
    "messages_sent": 45154094, "bytes_sent": 3069300000,
    "traffic": {"chord": family(40552597, 2829700000),
                "gossip": family(0, 0), "flower": family(654854, 58900000),
                "squirrel": family(0, 0), "other": family(0, 0),
                "nack": family(3946643, 180700000),
                "dropped": family(3948989, 192400000)},
    "events": 64211953, "events_cancelled": 24407573,
    "dring_resolve_failures": 10010, "dir_query_timeouts": 2696,
    "summary_hits": 36, "dir_failures_detected": 4706,
}

ACCOUNT = {"issued": 70642, "traced": 70642, "resolved": 70639,
           "in_flight": 2, "died": 1, "lost": 0}
SEAM = {f: dict(TRIAL["traffic"][f]) for f in checks.FAMILIES}


def shape(ws, obj, length, source, hit, lookup, count=1, status=200):
    return {"ws": ws, "obj": obj, "status": status, "length": length,
            "source": source, "hit": hit, "lookup": lookup,
            "measured": True, "count": count}


SHAPES = [
    shape(0, 0, 11504, "origin", "0", "110.0"),
    shape(0, 0, 11504, "petal", "1", "0.0", count=900),
    shape(1, 3, 2048, "directory", "1", "340.0"),
    shape(1, 3, 2048, "petal", "1", "0.0", count=700),
]
COUNTS = {"origin": 1, "local": 1600, "directory": 1}
SERVED = {"petal": 1600, "directory": 1, "origin": 1}


class SimChecks(unittest.TestCase):
    def doctored(self, **changes):
        t = copy.deepcopy(TRIAL)
        t.update(changes)
        return t

    def test_correct_trial_passes(self):
        self.assertEqual(checks.sim_trial(TRIAL), [])
        self.assertEqual(checks.sim_account(ACCOUNT, TRIAL), [])
        self.assertEqual(checks.sim_account(dict(ACCOUNT, died=0, lost=1), TRIAL), [])
        self.assertEqual(checks.sim_seam(SEAM, TRIAL["traffic"]), [])
        self.assertEqual(checks.sim_traced_matches(TRIAL, copy.deepcopy(TRIAL)), [])

    def test_population_off_by_one(self):
        self.assertTrue(checks.sim_trial(self.doctored(final_population=4949)))
        self.assertTrue(checks.sim_trial(self.doctored(churn_failures=116108)))

    def test_more_hits_than_queries(self):
        self.assertTrue(checks.sim_trial(self.doctored(hits=70640)))

    def test_lookup_histogram_misses_a_query(self):
        self.assertTrue(checks.sim_trial(self.doctored(lookup_count=70638)))

    def test_hit_beyond_largest_link(self):
        self.assertTrue(checks.sim_trial(self.doctored(max_transfer_hits_ms=500.5)))

    def test_more_nacks_than_dead_receiver_drops(self):
        t = self.doctored()
        t["traffic"]["nack"]["messages"] = t["traffic"]["dropped"]["messages"] + 1
        self.assertTrue(checks.sim_trial(t))

    def test_query_account_that_does_not_balance(self):
        self.assertTrue(checks.sim_account(dict(ACCOUNT, issued=70641), TRIAL))
        self.assertTrue(checks.sim_account(dict(ACCOUNT, traced=70641), TRIAL))
        self.assertTrue(checks.sim_account(dict(ACCOUNT, resolved=70638, died=2), TRIAL))
        self.assertTrue(checks.sim_account(dict(ACCOUNT, in_flight=3), TRIAL))

    def test_tally_that_misses_one_family(self):
        for fam in checks.FAMILIES:
            seam = copy.deepcopy(SEAM)
            seam[fam] = family(0, 0) if TRIAL["traffic"][fam]["messages"] else family(1, 40)
            self.assertTrue(checks.sim_seam(seam, TRIAL["traffic"]), fam)

    def test_traced_run_that_changed_the_simulation(self):
        self.assertTrue(checks.sim_traced_matches(self.doctored(hits=32705), TRIAL))


class LiveChecks(unittest.TestCase):
    def test_correct_responses_pass(self):
        self.assertEqual(checks.live_responses(SHAPES), [])
        self.assertEqual(checks.live_counts(COUNTS, SERVED), [])
        self.assertEqual(checks.live_exit([0, 0], [0, 0]), [])

    def test_body_of_the_wrong_length(self):
        bad = SHAPES + [shape(1, 3, 2049, "petal", "1", "0.0")]
        self.assertTrue(checks.live_responses(bad))
        self.assertTrue(checks.live_responses([shape(0, 1, 900, "origin", "0", "1.0")]))
        self.assertTrue(checks.live_responses([shape(0, 1, 17409, "origin", "0", "1.0")]))

    def test_hit_from_origin(self):
        self.assertTrue(checks.live_responses([shape(0, 0, 11504, "origin", "1", "110.0")]))

    def test_miss_from_the_overlay(self):
        self.assertTrue(checks.live_responses([shape(0, 0, 11504, "directory", "0", "9.0")]))

    def test_unknown_source_or_lookup(self):
        self.assertTrue(checks.live_responses([shape(0, 0, 11504, "cache", "1", "0.0")]))
        self.assertTrue(checks.live_responses([shape(0, 0, 11504, "petal", "1", "")]))

    def test_counts_that_disagree_with_the_gateways(self):
        self.assertTrue(checks.live_counts(dict(COUNTS, local=1599), SERVED))
        self.assertTrue(checks.live_counts(COUNTS, dict(SERVED, origin=2)))

    def test_unclean_exit(self):
        self.assertTrue(checks.live_exit([0, 1], [0, 1]))
        self.assertTrue(checks.live_exit([0, "killed"], [0, -9]))
        self.assertTrue(checks.live_exit([0, 0], [0, None]))


if __name__ == "__main__":
    unittest.main()
