"""Tests of run.py's metric assembly on synthetic records.

Run with: python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


BOUNDARIES = ("sim.Simulator.run", "spanner.localSpannerNeighbors",
              "geometry.Delaunay.buildInto", "geometry.TiledSpatialGrid.update",
              "mac.Mac.send", "mac.Channel.startTransmission",
              "mac.Mac.onFrameReceived", "net.NeighborService.handlePacket",
              "dtn.MessageBuffer.addToStore")


def record(j, rep, run_s, **extra):
    r = {"j": j, "rep": rep, "seed": 7 + 1009 * j, "ok": True, "error": "",
         "setup_s": 0.001 * (1 + j), "run_s": run_s, "sim_s": 400.0,
         "events": 1000, "created": 200, "delivered": 190 + j,
         "latency_p50_s": 10.0 + j, "latency_p90_s": 50.0 + j,
         "collisions": 5, "mac_queue_drops": 2, "buffer_evictions": 1,
         "send_rejects": 3, "custody_refusals": 4, "memo_hits": 1,
         "memo_misses": 3}
    r.update(extra)
    return r


def traced_record(j, run_s, untraced_run_s=1.0):
    spans = {b: {"calls": 10, "self_s": 0.1, "incl_s": 0.2, "allocs": 3}
             for b in BOUNDARIES}
    spans["spanner.localSpannerNeighbors"]["calls"] = 4
    spans["geometry.Delaunay.buildInto"]["calls"] = 20
    return record(j, 0, run_s, spans=spans, untraced_run_s=untraced_run_s,
                  allocs_under_root=500)


class EndToEnd(unittest.TestCase):
    def test_sim_rate_uses_each_replicates_mean_time(self):
        recs = [record(0, 0, 2.0), record(1, 0, 3.0), record(0, 1, 1.0),
                record(0, 2, 1.5)]
        m = run.end_to_end_metrics(recs, {"peak_rss_kb": 2048},
                                   [run.REFERENCE_KERNEL_S])
        # replicate 0: mean(2.0, 1.0, 1.5) = 1.5; replicate 1: 3.0
        self.assertAlmostEqual(m["sim_rate"]["value"], 800.0 / 4.5)
        self.assertAlmostEqual(m["delivery_ratio"]["value"], 381 / 400)
        self.assertAlmostEqual(m["latency_p50_s"]["value"], 10.5)
        self.assertAlmostEqual(m["latency_p90_s"]["value"], 50.5)
        self.assertAlmostEqual(m["peak_rss_mb"]["value"], 2.0)
        # median over first executions only: 0.001 and 0.002
        self.assertAlmostEqual(m["setup_s"]["value"], 0.0015)

    def test_host_times_scale_with_the_reference_kernel(self):
        # The kernel ran at half the reference speed (the median of its
        # times), so host times are halved: the rate doubles, set-up halves.
        ref = run.REFERENCE_KERNEL_S
        m = run.end_to_end_metrics([record(0, 0, 2.0)], {"peak_rss_kb": 1},
                                   [2 * ref, 3 * ref, 0.5 * ref])
        self.assertAlmostEqual(m["sim_rate"]["value"], 400.0)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.0005)


class PerLayer(unittest.TestCase):
    def test_ratios_and_overhead(self):
        traced = [traced_record(0, 1.1), traced_record(1, 1.3)]
        m = run.per_layer_metrics(traced)
        self.assertAlmostEqual(m["trace.overhead_pct"]["value"], 20.0)
        self.assertAlmostEqual(m["spanner.builds_per_call"]["value"], 5.0)
        self.assertAlmostEqual(m["spanner.memo_hit_ratio"]["value"], 0.25)
        self.assertAlmostEqual(m["mac.queue_drop_ratio"]["value"], 0.2)
        self.assertAlmostEqual(m["alloc.per_event"]["value"], 0.5)
        self.assertAlmostEqual(m["sim.events_per_s"]["value"], 1000.0)
        self.assertAlmostEqual(m["mac.Mac.send.self_s"]["value"], 0.1)

    def test_zero_bases_give_zero_ratios(self):
        traced = [traced_record(0, 1.0)]
        traced[0]["spans"]["spanner.localSpannerNeighbors"]["calls"] = 0
        traced[0]["memo_hits"] = traced[0]["memo_misses"] = 0
        m = run.per_layer_metrics(traced)
        self.assertEqual(m["spanner.builds_per_call"]["value"], 0.0)
        self.assertEqual(m["spanner.memo_hit_ratio"]["value"], 0.0)


class Names(unittest.TestCase):
    def emitted(self):
        e2e = run.end_to_end_metrics([record(0, 0, 1.0)], {"peak_rss_kb": 1},
                                     [run.REFERENCE_KERNEL_S])
        layer = run.per_layer_metrics([traced_record(0, 1.0)])
        return e2e, layer

    def test_every_emitted_name_is_valid(self):
        for metrics in self.emitted():
            for name, m in metrics.items():
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_emitted_names_match_the_benchmark_definition(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        e2e, layer = self.emitted()
        for section, metrics in (("end_to_end", e2e), ("per_layer", layer)):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(declared,
                             {k: v["unit"] for k, v in metrics.items()})

    def test_invalid_name_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.result_line(run.Tally(), {"bad name": run.metric(1, "s")})


class Failures(unittest.TestCase):
    def test_failed_records_and_early_exit_count(self):
        t = run.Tally()
        lines = [record(0, 0, 1.0), record(1, 0, 1.0, ok=False, error="x")]
        recs, done = t.scenarios(lines, 1, "w")
        self.assertEqual(len(recs), 2)
        self.assertEqual(done, {})
        self.assertEqual(t.attempted, 3)
        self.assertEqual(len(t.failures), 2)
        line = run.result_line(t, {})
        self.assertFalse(line["correct"])
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])


if __name__ == "__main__":
    unittest.main()
