#!/usr/bin/env python3
"""CI campaign gates for the EVE reproduction.

Each gate runs release bench binaries and checks the floors and
byte-determinism properties CI holds them to:

    python3 ci/gates.py <gate> [<gate> ...]
    python3 ci/gates.py all

Gates: hotpath, fault-determinism, fault-secded, cluster,
cluster-shaped, elastic, net, results. Run from anywhere inside the
repository; a failed floor exits nonzero with the reason.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Bins whose stdout is committed under results/ (one file per bin).
RESULT_BINS = [
    "ablation_dtus",
    "ablation_mshrs",
    "ablation_pipes",
    "ablation_window",
    "cmp_scaling",
    "fig1_layout",
    "fig2_spectrum",
    "fig4_uprograms",
    "fig6_performance",
    "fig7_breakdown",
    "fig8_vmu_stalls",
    "report_digest",
    "tab1_taxonomy",
    "tab3_systems",
    "tab4_benchmarks",
    "tab_area_efficiency",
    "tab_circuits",
    "tab_energy",
]


def run(bin_name, *args, threads=None, timeout=None):
    """Runs an eve-bench binary in release mode and returns its stdout."""
    env = dict(os.environ)
    if threads is not None:
        env["EVE_BENCH_THREADS"] = str(threads)
    if timeout is not None:
        env["EVE_BENCH_TIMEOUT"] = str(timeout)
    cmd = ["cargo", "run", "--release", "-q", "-p", "eve-bench", "--bin", bin_name, "--"]
    print("$ " + " ".join(cmd + list(args)), flush=True)
    return subprocess.run(
        cmd + list(args), cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE
    ).stdout


def cmp(bin_name, *args, timeout=None):
    """Runs a campaign serially and at 4 threads and requires
    byte-identical output; returns the serial run's stdout."""
    serial = run(bin_name, *args, threads=1, timeout=timeout)
    parallel = run(bin_name, *args, threads=4, timeout=timeout)
    if serial != parallel:
        sys.exit(f"{bin_name} {' '.join(args)}: 4-thread output differs from serial")
    return serial


def summary(out):
    return json.loads(out)["summary"]


def no_errors_or_sdc(s):
    assert s["failed"] == 0, f"error rows: {s['failed']}"
    assert s["total_sdc"] == 0, f"SDCs leaked: {s['total_sdc']}"


# A sweep without --net runs on the ideal link, which retransmits,
# hedges, deduplicates and suspects nothing.
IDEAL_LINK_ZEROS = (
    "net_retransmits",
    "net_hedges",
    "net_hedge_wins",
    "net_dedup_absorbed",
    "net_suspicions",
    "net_double_applied",
)


def no_transport_activity(s):
    for key in IDEAL_LINK_ZEROS:
        assert s[key] == 0, f"{key} = {s[key]} on the ideal link"


def hotpath():
    # The bitsliced interpreter must hold its geomean speedup over the
    # lane-serial scalar oracle (the bin asserts the floor itself).
    out = run("hotpath_timing", "--tiny", "--assert-speedup", "12", "--out", "-").decode()
    print(out)
    # A fault-armed array (zero-rate injector) must stay within 2x of
    # the healthy interpreter per simulated cycle, in both detection
    # modes. The JSON document leads the output; the table follows it.
    doc, _ = json.JSONDecoder().raw_decode(out)
    for mode, ratio in doc["armed_over_healthy"].items():
        assert ratio <= 2.0, f"{mode}-armed array runs {ratio:.2f}x healthy, above 2.0x"


def fault_determinism():
    cmp("fault_campaign", "--workloads", "2", "--factors", "8", "--rates", "0.0,1e-3")
    cmp(
        "fault_campaign",
        "--seed", "7", "--modes", "parity,secded_sparing", "--workloads", "2",
        "--factors", "8", "--rates", "0.0,1e-3",
    )


def fault_secded():
    # Writeback transients are single-bit per lane write: the class
    # SECDED must correct completely, even with the watchdog armed.
    out = run(
        "fault_campaign",
        "--seed", "7", "--write-only", "--modes", "secded", "--workloads", "2",
        "--factors", "8,32", "--rates", "0.0,1e-3,5e-3",
        timeout=600,
    ).decode()
    for needle in ('"silent_data_corruption": 0', '"detected_degraded": 0', '"failed": 0'):
        assert needle in out, f"SECDED mini-campaign lacks {needle}"
    # SECDED availability dominates parity at every nonzero rate.
    doc = json.loads(
        run(
            "fault_campaign",
            "--seed", "7", "--write-only", "--modes", "parity,secded", "--workloads", "2",
            "--factors", "8", "--rates", "5e-3,1e-2",
        )
    )
    a = {(r["mode"], r["rate"]): r["mean_availability"] for r in doc["availability"]}
    for (mode, rate), v in a.items():
        if mode == "secded":
            p = a[("parity", rate)]
            assert v > p, f"secded {v} must beat parity {p} at rate {rate}"


def cluster():
    # Shard x tenant x storm-shape sweep: availability, fairness,
    # ladder and deadline-miss floors.
    doc = json.loads(run("cluster_campaign", "--workloads", "2", timeout=600))
    s = doc["summary"]
    no_errors_or_sdc(s)
    no_transport_activity(s)
    assert s["min_availability"] >= 0.99, f"availability floor broken: {s['min_availability']}"
    assert s["min_tenant_availability"] >= 0.95, \
        f"per-tenant fairness floor broken: {s['min_tenant_availability']}"
    assert s["ladder_step_downs"] >= 1 and s["ladder_step_ups"] >= 1, \
        "the ladder must step down and recover somewhere in the sweep"
    for r in doc["runs"]:
        miss = r["report"]["deadline_miss_rate"]
        assert miss <= 0.01, \
            f"deadline-miss budget broken: {miss} in {r['shards']}/{r['tenants']}/{r['shape']}"
    no_transport_activity(summary(cmp(
        "cluster_campaign", "--workloads", "2", "--shards", "2,4", "--shapes", "calm,hotkey,shardkill"
    )))


def cluster_shaped():
    out = cmp(
        "cluster_campaign",
        "--workloads", "3", "--shards", "2", "--shapes", "diurnal,bursty,keystorm",
    )
    s = summary(out)
    no_errors_or_sdc(s)
    no_transport_activity(s)


def elastic():
    s = summary(
        run(
            "cluster_campaign",
            "--workloads", "2", "--shapes", "calm,phased,bursty", "--elastic",
            timeout=600,
        )
    )
    no_errors_or_sdc(s)
    no_transport_activity(s)
    assert s["elastic"], "elastic switch not recorded"
    assert s["elastic_spawns"] + s["elastic_retires"] >= 1, "the elastic sweep never reconfigured"
    no_transport_activity(summary(cmp(
        "cluster_campaign",
        "--workloads", "2", "--shards", "2,4", "--shapes", "phased,bursty", "--elastic",
    )))


def net():
    # Availability may sag with loss; the gates are conservation and
    # exactly-once, not the service floor.
    s = summary(
        run(
            "cluster_campaign",
            "--workloads", "2", "--shards", "2,4", "--shapes", "bursty,partition",
            "--net", "0,2,5",
            timeout=600,
        )
    )
    no_errors_or_sdc(s)
    assert s["net"], "net switch not recorded"
    assert s["net_double_applied"] == 0, \
        f"exactly-once broken: {s['net_double_applied']} double applications"
    assert s["net_retransmits"] >= 1, "lossy cells never retransmitted"
    assert s["net_suspicions"] >= 1, "partition cells never raised a suspicion"
    cmp(
        "cluster_campaign",
        "--workloads", "2", "--shards", "2,4", "--shapes", "bursty,partition", "--net", "0,5",
    )
    # The elastic controller under the transport: its dwell ends and
    # thrash window bound which liveness events may skip the passes.
    cmp(
        "cluster_campaign",
        "--workloads", "2", "--shards", "2,4", "--shapes", "phased,partition", "--elastic",
        "--net", "0,5",
    )


def results():
    # The committed results/ must be what the bins print today.
    for name in RESULT_BINS:
        with open(os.path.join(ROOT, "results", f"{name}.txt"), "wb") as f:
            f.write(run(name))
    subprocess.run(["git", "diff", "--exit-code", "results/"], cwd=ROOT, check=True)


GATES = {
    "hotpath": hotpath,
    "fault-determinism": fault_determinism,
    "fault-secded": fault_secded,
    "cluster": cluster,
    "cluster-shaped": cluster_shaped,
    "elastic": elastic,
    "net": net,
    "results": results,
}


def main(argv):
    names = list(GATES) if argv == ["all"] else argv
    unknown = [n for n in names if n not in GATES]
    if not names or unknown:
        sys.exit(f"usage: gates.py <gate>... | all  (gates: {', '.join(GATES)})")
    for name in names:
        print(f"== gate {name}", flush=True)
        GATES[name]()
        print(f"== gate {name}: pass", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
