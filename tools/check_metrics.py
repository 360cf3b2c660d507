#!/usr/bin/env python3
"""Validate a mayflower_sim --metrics-out JSON document, or compare two.

Checks structural invariants the exporter promises (ci.sh runs this on the
file it also diffs for determinism):

  * schema_version == 2, scheme is a non-empty string, runs is a list;
  * every run has an integer seed and an obs object with counters, gauges,
    histograms, flows, decisions and estimator_error;
  * histogram edges are strictly ascending, buckets == edges + 1, the
    bucket counts tile `count`, and min <= max when count > 0;
  * flow records carry the full trace schema with sane values
    (moved_bytes >= 0, end >= start for completed flows);
  * estimator_error and belief_error percentiles are ordered
    (p50 <= p90 <= p99 <= max);
  * every run with flowserver.* metrics (every run with a Flowserver: the
    families are registered together at construction) exports the
    flowserver.shard.* family complete and coherent: the shard-count gauge
    is >= 1, and per-shard reloads imply at least one prior full view
    build;
  * those runs also export the flowserver.poll.* family complete (five
    counters + two gauges) and coherent: budget deferrals and class
    transitions imply applied samples;
  * when a run carries a metadata-plane export (the optional per-run
    "meta_obs" object written for --meta-ops > 0), it passes the same
    structural checks as the main obs block and the meta.* family is
    complete: meta.shard.count gauge >= 1, one meta.shard.<i>.ops counter
    per shard, the router counters, the lookup-latency histogram, and the
    async-commit trio all-or-nothing;
  * when the write-path planner exports its counters (every run with a
    Flowserver: the family is registered with the others at construction),
    the flowserver.write.* family is complete (three counters + the
    bottleneck histogram, all-or-nothing) and coherent: every chain has at
    least one hop and exactly one bottleneck observation;
  * when a run carries a write-phase export (the optional per-run
    "write_obs" object written for --write-jobs > 0), it passes the same
    structural checks as the main obs block;
  * every exported counter/gauge/histogram name matches a pattern of its
    kind in REGISTERED_METRICS below — the same registry that
    tools/lint_invariants.py --check=metrics reconciles against the
    registration sites in src/ and the inventory tables in DESIGN.md.

Exit status 0 on success, 1 on any violation (all violations are listed).

    check_metrics.py METRICS_JSON
    check_metrics.py --same-obs A B [--ignore PREFIX]...

--same-obs compares two documents instead: they must hold the same seeds in
the same order, and each run's main obs block must be equal, except for
metric names that start with an ignored prefix.
"""
import argparse
import json
import re
import sys

# ---------------------------------------------------------------------------
# The registry of every metric name src/ can register, one pattern per
# family. tools/lint_invariants.py --check=metrics holds this registry to
# account both ways: every registration in src/ must match a pattern here,
# every pattern here must be registered by some code, and DESIGN.md's
# metrics inventory must list exactly these patterns. At runtime (below),
# every name in an exported metrics JSON must match a pattern of its kind.
#
# Wildcards: <i> a decimal index, <method> an rpc::Method name (CamelCase),
# <kind> a FaultKind name (lowercase, hyphenated), <scope> one of
# METRIC_SCOPES (the nameserver metric_scope values).
METRIC_SCOPES = ("fs.nameserver", "meta.shard.<i>")

REGISTERED_METRICS = {
    # fluid network simulator
    "net.flowsim.incremental_solves": "counter",
    "net.flowsim.full_solves": "counter",
    "net.flowsim.handoff_solves": "counter",
    # harness + filesystem clients/servers
    "harness.read_retries": "counter",
    "fs.client.lookups": "counter",
    "fs.client.cache_hits": "counter",
    "fs.client.read_retries": "counter",
    "fs.client.retry_backoff_sec": "histogram",
    "fs.ds.relay_failed": "counter",
    "fs.ds.chain_appends": "counter",
    "<scope>.ops": "counter",
    "<scope>.probes_sent": "counter",
    "<scope>.rereplications": "counter",
    "<scope>.rpc.<method>": "counter",
    # flowserver (selection, telemetry, sharded state, write path)
    "flowserver.selections": "counter",
    "flowserver.split_reads": "counter",
    "flowserver.table.freeze_suppressed": "counter",
    "flowserver.poll.applied": "counter",
    "flowserver.poll.deferred_mouse": "counter",
    "flowserver.poll.deferred_budget": "counter",
    "flowserver.poll.promotions": "counter",
    "flowserver.poll.demotions": "counter",
    "flowserver.poll.elephants": "gauge",
    "flowserver.poll.mice": "gauge",
    "flowserver.poll.samples_per_tick": "histogram",
    "flowserver.shard.count": "gauge",
    "flowserver.shard.full_rebuilds": "counter",
    "flowserver.shard.reloads": "counter",
    "flowserver.shard.link_refreshes": "counter",
    "flowserver.write.chains": "counter",
    "flowserver.write.hops": "counter",
    "flowserver.write.truncated": "counter",
    "flowserver.write.bottleneck_bps": "histogram",
    # metadata plane (DESIGN.md §13)
    "meta.shard.count": "gauge",
    "meta.plane.failovers": "counter",
    "meta.router.map_fetches": "counter",
    "meta.router.wrong_shard_retries": "counter",
    "meta.lookup_latency_sec": "histogram",
    "meta.async.inflight": "gauge",
    "meta.async.committed": "counter",
    "meta.async.failed": "counter",
    # SDN fabric + stats poller
    "sdn.fabric.path_installs": "counter",
    "sdn.fabric.path_removes": "counter",
    "sdn.fabric.flows_started": "counter",
    "sdn.fabric.flows_completed": "counter",
    "sdn.fabric.flows_failed": "counter",
    "sdn.fabric.reroutes": "counter",
    "sdn.fabric.link_downs": "counter",
    "sdn.fabric.link_restores": "counter",
    "sdn.fabric.switch_wipes": "counter",
    "sdn.fabric.edge_polls": "counter",
    "sdn.poller.ticks": "counter",
    # fault injection
    "fault.injected.<kind>": "counter",
}

_WILDCARDS = {"<i>": r"\d+", "<method>": r"[A-Za-z]+", "<kind>": r"[a-z-]+"}


def _pattern_regexes():
    by_kind = {}
    for pattern, kind in REGISTERED_METRICS.items():
        expansions = ([pattern.replace("<scope>", s) for s in METRIC_SCOPES]
                      if "<scope>" in pattern else [pattern])
        for expanded in expansions:
            rx = re.escape(expanded)
            for token, sub in _WILDCARDS.items():
                rx = rx.replace(re.escape(token), sub)
            by_kind.setdefault(kind, []).append(rx)
    return {kind: re.compile(r"^(?:%s)$" % "|".join(rxs))
            for kind, rxs in by_kind.items()}


_KNOWN = _pattern_regexes()

FLOW_FIELDS = {
    "cookie", "planned_bw_bps", "planned_bytes", "start_sec", "end_sec",
    "realized_bw_bps", "moved_bytes", "resizes", "reroutes", "freeze_hits",
    "setbw_bumps", "split", "killed",
}
DECISION_FIELDS = {
    "time_sec", "candidates", "own_time_sec", "impact_sec", "frozen_flows",
    "freeze_suppressed", "split",
}
ERROR_FIELDS = {"count", "mean", "p50", "p90", "p99", "max"}

errors = []


def fail(msg):
    errors.append(msg)


def check_histogram(name, h, where):
    edges = h.get("edges")
    buckets = h.get("buckets")
    if not isinstance(edges, list) or not edges:
        fail(f"{where}: histogram {name!r} has no edges")
        return
    if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        fail(f"{where}: histogram {name!r} edges not strictly ascending")
    if not isinstance(buckets, list) or len(buckets) != len(edges) + 1:
        fail(f"{where}: histogram {name!r} needs len(edges)+1 buckets")
        return
    count = h.get("count", 0)
    if sum(buckets) != count:
        fail(f"{where}: histogram {name!r} buckets sum {sum(buckets)} "
             f"!= count {count}")
    if count > 0 and h.get("min", 0) > h.get("max", 0):
        fail(f"{where}: histogram {name!r} min > max")


def check_flow(i, flow, where):
    missing = FLOW_FIELDS - flow.keys()
    if missing:
        fail(f"{where}: flow[{i}] missing fields {sorted(missing)}")
        return
    if flow["moved_bytes"] < 0:
        fail(f"{where}: flow[{i}] negative moved_bytes")
    if flow["planned_bw_bps"] < 0 or flow["realized_bw_bps"] < 0:
        fail(f"{where}: flow[{i}] negative bandwidth")
    if not flow["killed"] and flow["end_sec"] < flow["start_sec"]:
        fail(f"{where}: flow[{i}] completed before it started")


def check_known_names(obs, where):
    """Every exported name must match a REGISTERED_METRICS pattern of the
    right kind — a rename or an unregistered addition fails here (and in
    lint_invariants --check=metrics at the registration site)."""
    for kind, key in (("counter", "counters"), ("gauge", "gauges"),
                      ("histogram", "histograms")):
        rx = _KNOWN.get(kind)
        for name in obs[key]:
            if rx is None or not rx.match(name):
                fail(f"{where}: {kind} {name!r} matches no "
                     f"REGISTERED_METRICS pattern of its kind")


def check_obs(obs, where):
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(obs.get(key), dict):
            fail(f"{where}: missing or non-object {key!r}")
            return
    check_known_names(obs, where)
    for name, value in obs["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: counter {name!r} is not a non-negative integer")
    for name, h in obs["histograms"].items():
        check_histogram(name, h, where)
    flows = obs.get("flows")
    if not isinstance(flows, list):
        fail(f"{where}: missing 'flows' array")
    else:
        for i, flow in enumerate(flows):
            check_flow(i, flow, where)
    decisions = obs.get("decisions")
    if not isinstance(decisions, list):
        fail(f"{where}: missing 'decisions' array")
    else:
        for i, d in enumerate(decisions):
            missing = DECISION_FIELDS - d.keys()
            if missing:
                fail(f"{where}: decision[{i}] missing {sorted(missing)}")
    for block in ("estimator_error", "belief_error"):
        err = obs.get(block)
        if not isinstance(err, dict) or ERROR_FIELDS - err.keys():
            fail(f"{where}: malformed {block!r} block")
            continue
        if err["count"] < 0:
            fail(f"{where}: {block}.count negative")
        if not err["p50"] <= err["p90"] <= err["p99"] <= err["max"]:
            fail(f"{where}: {block} percentiles out of order")
    err = obs.get("estimator_error")
    if isinstance(err, dict) and err.get("count", 0) > 0 and not flows:
        fail(f"{where}: estimator errors without any finished flows")
    check_shard_family(obs, where)
    check_meta_family(obs, where)
    check_poll_family(obs, where)
    check_write_family(obs, where)


SHARD_COUNTERS = (
    "flowserver.shard.full_rebuilds",
    "flowserver.shard.reloads",
    "flowserver.shard.link_refreshes",
)


def has_flowserver(obs):
    """Whether the run had a Flowserver (it registers flowserver.*)."""
    return any(k.startswith("flowserver.")
               for key in ("counters", "gauges", "histograms")
               for k in obs[key])


def check_shard_family(obs, where):
    """flowserver.shard.* is complete and internally coherent."""
    if not has_flowserver(obs):
        return  # no Flowserver in this run: nothing due
    counters = obs["counters"]
    gauges = obs["gauges"]
    missing = [c for c in SHARD_COUNTERS if c not in counters]
    if missing:
        fail(f"{where}: partial flowserver.shard.* export, missing "
             f"{missing}")
    if "flowserver.shard.count" not in gauges:
        fail(f"{where}: flowserver.* metrics without a "
             f"'flowserver.shard.count' gauge")
        return
    shard_count = gauges["flowserver.shard.count"]
    if shard_count < 1:
        fail(f"{where}: shard count is {shard_count}, expected >= 1")
    if counters.get("flowserver.shard.reloads", 0) > 0 and \
            counters.get("flowserver.shard.full_rebuilds", 0) < 1:
        fail(f"{where}: shard reloads without any prior full view build")


POLL_COUNTERS = (
    "flowserver.poll.applied",
    "flowserver.poll.deferred_mouse",
    "flowserver.poll.deferred_budget",
    "flowserver.poll.promotions",
    "flowserver.poll.demotions",
)
POLL_GAUGES = (
    "flowserver.poll.elephants",
    "flowserver.poll.mice",
)


def check_poll_family(obs, where):
    """flowserver.poll.* (stats-poll telemetry, DESIGN.md §14) is complete
    and internally coherent."""
    if not has_flowserver(obs):
        return  # no Flowserver in this run: nothing due
    counters = obs["counters"]
    gauges = obs["gauges"]
    missing = [c for c in POLL_COUNTERS if c not in counters]
    missing += [g for g in POLL_GAUGES if g not in gauges]
    if missing:
        fail(f"{where}: partial flowserver.poll.* export, missing {missing}")
        return
    # A budget deferral means the per-tick cap was hit, which requires the
    # tick to have applied at least that many samples first.
    if counters["flowserver.poll.deferred_budget"] > 0 and \
            counters["flowserver.poll.applied"] == 0:
        fail(f"{where}: budget deferrals without any applied samples")
    # Class counts move only through applied samples: a demotion (and any
    # later promotion) implies at least one applied classification.
    transitions = (counters["flowserver.poll.promotions"] +
                   counters["flowserver.poll.demotions"])
    if transitions > 0 and counters["flowserver.poll.applied"] == 0:
        fail(f"{where}: class transitions without any applied samples")


WRITE_COUNTERS = (
    "flowserver.write.chains",
    "flowserver.write.hops",
    "flowserver.write.truncated",
)
WRITE_HISTOGRAM = "flowserver.write.bottleneck_bps"


def check_write_family(obs, where):
    """flowserver.write.* (write-chain planning, DESIGN.md §15) is
    all-or-nothing and internally coherent."""
    counters = obs["counters"]
    histograms = obs["histograms"]
    present = [c for c in WRITE_COUNTERS if c in counters]
    has_hist = WRITE_HISTOGRAM in histograms
    if not present and not has_hist:
        return  # no Flowserver in this run: nothing due
    missing = [c for c in WRITE_COUNTERS if c not in counters]
    if missing:
        fail(f"{where}: partial flowserver.write.* export, missing "
             f"{missing}")
    if not has_hist:
        fail(f"{where}: flowserver.write.* counters without a "
             f"{WRITE_HISTOGRAM!r} histogram")
        return
    if missing:
        return
    chains = counters["flowserver.write.chains"]
    hops = counters["flowserver.write.hops"]
    if hops < chains:
        fail(f"{where}: {hops} chain hops for {chains} chains "
             f"(every chain has at least one hop)")
    # The planner records exactly one joint-bottleneck observation per
    # successfully planned chain.
    hist_count = histograms[WRITE_HISTOGRAM].get("count", 0)
    if hist_count != chains:
        fail(f"{where}: {hist_count} bottleneck observations for "
             f"{chains} planned chains")


META_ROUTER_COUNTERS = (
    "meta.router.map_fetches",
    "meta.router.wrong_shard_retries",
)
META_ASYNC_KEYS = (
    "meta.async.inflight",       # gauge
    "meta.async.committed",      # counter
    "meta.async.failed",         # counter
)


def check_meta_family(obs, where):
    """meta.* is all-or-nothing and internally coherent."""
    counters = obs["counters"]
    gauges = obs["gauges"]
    histograms = obs["histograms"]
    any_meta = any(k.startswith("meta.")
                   for k in (*counters, *gauges, *histograms))
    if not any_meta:
        return  # run without a metadata plane: nothing due
    if "meta.shard.count" not in gauges:
        fail(f"{where}: meta.* metrics without a 'meta.shard.count' gauge")
        return
    shard_count = gauges["meta.shard.count"]
    if not isinstance(shard_count, int) or shard_count < 1:
        fail(f"{where}: meta.shard.count must be an integer >= 1, got "
             f"{shard_count!r}")
        return
    for i in range(shard_count):
        if f"meta.shard.{i}.ops" not in counters:
            fail(f"{where}: missing 'meta.shard.{i}.ops' counter "
                 f"(shard count says {shard_count})")
    missing = [c for c in META_ROUTER_COUNTERS if c not in counters]
    if missing:
        fail(f"{where}: partial meta.router.* export, missing {missing}")
    if "meta.plane.failovers" not in counters:
        fail(f"{where}: missing 'meta.plane.failovers' counter")
    if "meta.lookup_latency_sec" not in histograms:
        fail(f"{where}: missing 'meta.lookup_latency_sec' histogram")
    # Async-commit metrics only exist when --meta-async is on, but then the
    # whole trio must be there together.
    async_present = [k for k in META_ASYNC_KEYS
                     if k in counters or k in gauges]
    if async_present and len(async_present) != len(META_ASYNC_KEYS):
        absent = [k for k in META_ASYNC_KEYS if k not in async_present]
        fail(f"{where}: partial meta.async.* export, missing {absent}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot parse {path}: {e}", file=sys.stderr)
        return None


def without_ignored(obs, ignore):
    """`obs` minus the metric names starting with a prefix in `ignore`."""
    kept = dict(obs)
    for key in ("counters", "gauges", "histograms"):
        kept[key] = {k: v for k, v in obs.get(key, {}).items()
                     if not k.startswith(tuple(ignore))}
    return kept


def same_obs(path_a, path_b, ignore):
    a, b = load(path_a), load(path_b)
    if a is None or b is None:
        return 1
    runs_a, runs_b = a.get("runs", []), b.get("runs", [])
    if [r.get("seed") for r in runs_a] != [r.get("seed") for r in runs_b]:
        fail(f"seeds differ: {[r.get('seed') for r in runs_a]} vs "
             f"{[r.get('seed') for r in runs_b]}")
    for ra, rb in zip(runs_a, runs_b):
        oa = without_ignored(ra.get("obs", {}), ignore)
        ob = without_ignored(rb.get("obs", {}), ignore)
        for key in sorted(oa.keys() | ob.keys()):
            va, vb = oa.get(key), ob.get(key)
            if va == vb:
                continue
            if isinstance(va, dict) and isinstance(vb, dict):
                names = sorted(n for n in va.keys() | vb.keys()
                               if va.get(n) != vb.get(n))
                fail(f"seed {ra.get('seed')}: obs.{key} differ in {names}")
            else:
                fail(f"seed {ra.get('seed')}: obs.{key} differ")
    if errors:
        for e in errors:
            print(f"check_metrics: {e}", file=sys.stderr)
        return 1
    print(f"check_metrics: same obs ({len(runs_a)} runs, ignoring "
          f"{list(ignore) or 'nothing'})")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Validate a metrics JSON document, or compare two.")
    parser.add_argument("metrics_json", nargs="?")
    parser.add_argument("--same-obs", nargs=2, metavar=("A", "B"))
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="PREFIX")
    args = parser.parse_args()
    if args.same_obs is not None:
        if args.metrics_json is not None:
            parser.error("--same-obs takes no METRICS_JSON")
        return same_obs(*args.same_obs, args.ignore)
    if args.metrics_json is None or args.ignore:
        parser.error("expected METRICS_JSON (--ignore needs --same-obs)")
    doc = load(args.metrics_json)
    if doc is None:
        return 1

    if doc.get("schema_version") != 2:
        fail("schema_version != 2")
    scheme = doc.get("scheme")
    if not isinstance(scheme, str) or not scheme:
        fail("missing 'scheme' string")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("'runs' must be a non-empty array")
        runs = []
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run.get("seed"), int):
            fail(f"{where}: missing integer 'seed'")
        obs = run.get("obs")
        if not isinstance(obs, dict):
            fail(f"{where}: missing 'obs' object")
            continue
        check_obs(obs, where)
        meta_obs = run.get("meta_obs")
        if meta_obs is not None:
            mwhere = f"{where}.meta_obs"
            if not isinstance(meta_obs, dict):
                fail(f"{mwhere}: not an object")
                continue
            check_obs(meta_obs, mwhere)
            if not any(k.startswith("meta.")
                       for k in meta_obs.get("counters", {})):
                fail(f"{mwhere}: metadata export without any meta.* "
                     f"counters")
        write_obs = run.get("write_obs")
        if write_obs is not None:
            wwhere = f"{where}.write_obs"
            if not isinstance(write_obs, dict):
                fail(f"{wwhere}: not an object")
                continue
            check_obs(write_obs, wwhere)

    if errors:
        for e in errors:
            print(f"check_metrics: {e}", file=sys.stderr)
        return 1
    n_flows = sum(len(r["obs"]["flows"]) for r in runs)
    print(f"check_metrics: OK ({len(runs)} runs, {n_flows} flow traces, "
          f"scheme {scheme!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
