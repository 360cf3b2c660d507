#!/usr/bin/env python3
"""Validate a mayflower_sim --metrics-out JSON document, or compare two.

Every metric name src/ can register is listed once, in the metrics catalog
src/obs/metrics_catalog.json: its name pattern, kind and meaning, plus a
family for names that register together. tools/lint_invariants.py
--check=metrics holds the registration sites in src/ and the names this
script tests to the same catalog, through load and pattern_regex below.

A document passes when:

  * schema_version == 2, scheme is a non-empty string, runs is a list;
  * every run has an integer seed and an obs object with counters, gauges,
    histograms, flows, decisions and estimator_error;
  * every exported name matches a catalog pattern of its kind;
  * histogram edges are strictly ascending, buckets == edges + 1, the
    bucket counts tile `count`, and min <= max when count > 0;
  * flow records carry the full trace schema with sane values
    (moved_bytes >= 0, end >= start for completed flows);
  * estimator_error and belief_error percentiles are ordered
    (p50 <= p90 <= p99 <= max);
  * catalog families are all-or-nothing: a block that exports any name of a
    family exports all of them (every run with a Flowserver exports the 15
    flowserver.* names, a sharded metadata plane the five meta.* names, an
    async committer the three meta.async.* names);
  * a complete family is coherent: the Flowserver's budget deferrals and
    class transitions imply applied samples, the samples_per_tick histogram
    sums to the applied samples, every write chain has at least one hop and
    one bottleneck observation; the metadata plane's shard count is an integer
    >= 1 with one meta.shard.<i>.ops counter per shard;
  * the optional per-run blocks, "meta_obs" (--meta-ops > 0) and
    "write_obs" (--write-jobs > 0), pass the same checks as the main obs
    block, and a metadata export carries a <scope>.ops counter from the
    single nameserver or a metadata shard.

Exit status 0 on success, 1 on any violation (all violations are listed).

    check_metrics.py METRICS_JSON
    check_metrics.py --same-obs A B [--ignore PREFIX]...

--same-obs compares two documents instead: they must hold the same seeds in
the same order, and each run's main obs block must be equal, except for
metric names that start with an ignored prefix.
"""
import argparse
import json
import os
import re
import sys

CATALOG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "../src/obs/metrics_catalog.json")
SECTIONS = {"counter": "counters", "gauge": "gauges",
            "histogram": "histograms"}


def load(path):
    """A metrics document, or the catalog: {"wildcards": {token: regex},
    "scopes": [...], "metrics": [{"name", "kind", "meaning"[, "family"]},
    ...]}. None (reported on stderr) when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot parse {path}: {e}", file=sys.stderr)
        return None


def expand_scope(pattern, catalog):
    """'<scope>.ops' -> one pattern per catalog scope; others unchanged."""
    if "<scope>" not in pattern:
        return [pattern]
    return [pattern.replace("<scope>", s) for s in catalog["scopes"]]


def pattern_regex(pattern, catalog):
    """A full-match regex for a catalog name pattern, wildcards expanded."""
    out = []
    for expanded in expand_scope(pattern, catalog):
        rx = re.escape(expanded)
        for token, sub in catalog["wildcards"].items():
            rx = rx.replace(re.escape(token), sub)
        out.append(rx)
    return re.compile(r"^(?:%s)$" % "|".join(out))


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


def check_known_names(obs, where, catalog):
    """Every exported name matches a catalog pattern of its kind: a rename
    or an unlisted addition fails here (and in lint_invariants
    --check=metrics at the registration site)."""
    for kind, section in SECTIONS.items():
        rxs = [pattern_regex(m["name"], catalog)
               for m in catalog["metrics"] if m["kind"] == kind]
        for name in obs[section]:
            if not any(rx.match(name) for rx in rxs):
                fail(f"{where}: {kind} {name!r} matches no catalog pattern "
                     f"of its kind")


def check_obs(obs, where, catalog):
    for key in SECTIONS.values():
        if not isinstance(obs.get(key), dict):
            fail(f"{where}: missing or non-object {key!r}")
            return
    check_known_names(obs, where, catalog)
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
    complete = check_families(obs, where, catalog)
    if "flowserver" in complete:
        check_flowserver(obs, where)
    if "meta" in complete:
        check_meta(obs, where)


def check_families(obs, where, catalog):
    """A block that exports any name of a catalog family exports all of
    them. Returns the families it exports complete."""
    members = {}
    for m in catalog["metrics"]:
        if "family" in m:
            members.setdefault(m["family"], []).append(
                (m["name"], SECTIONS[m["kind"]]))
    complete = set()
    for family, names in members.items():
        missing = [n for n, section in names if n not in obs[section]]
        if not missing:
            complete.add(family)
        elif len(missing) < len(names):
            fail(f"{where}: partial {family} family export, missing "
                 f"{missing}")
    return complete


def check_flowserver(obs, where):
    """The Flowserver's families (stats poll, write chains) are internally
    coherent."""
    counters = obs["counters"]
    histograms = obs["histograms"]
    applied = counters["flowserver.poll.applied"]
    # A budget deferral means the per-tick cap was hit, which requires the
    # tick to have applied at least that many samples first.
    if counters["flowserver.poll.deferred_budget"] > 0 and applied == 0:
        fail(f"{where}: budget deferrals without any applied samples")
    # Class counts move only through applied samples: a demotion (and any
    # later promotion) implies at least one applied classification.
    transitions = (counters["flowserver.poll.promotions"] +
                   counters["flowserver.poll.demotions"])
    if transitions > 0 and applied == 0:
        fail(f"{where}: class transitions without any applied samples")
    # Every tick observes the samples it applied; a finished flow's final
    # counter is neither applied nor observed.
    per_tick = histograms["flowserver.poll.samples_per_tick"].get("sum", 0)
    if per_tick != applied:
        fail(f"{where}: samples_per_tick sums to {per_tick:g} but "
             f"{applied} samples were applied")
    chains = counters["flowserver.write.chains"]
    hops = counters["flowserver.write.hops"]
    if hops < chains:
        fail(f"{where}: {hops} chain hops for {chains} chains "
             f"(every chain has at least one hop)")
    # The planner records exactly one joint-bottleneck observation per
    # successfully planned chain.
    observed = histograms["flowserver.write.bottleneck_bps"].get("count", 0)
    if observed != chains:
        fail(f"{where}: {observed} bottleneck observations for "
             f"{chains} planned chains")


def check_meta(obs, where):
    """The sharded metadata plane exports one ops counter per shard."""
    shard_count = obs["gauges"]["meta.shard.count"]
    if not isinstance(shard_count, int) or shard_count < 1:
        fail(f"{where}: meta.shard.count must be an integer >= 1, got "
             f"{shard_count!r}")
        return
    for i in range(shard_count):
        if f"meta.shard.{i}.ops" not in obs["counters"]:
            fail(f"{where}: missing 'meta.shard.{i}.ops' counter "
                 f"(shard count says {shard_count})")


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
    catalog = load(CATALOG_PATH)
    if doc is None or catalog is None:
        return 1
    scope_ops = pattern_regex("<scope>.ops", catalog)

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
        check_obs(obs, where, catalog)
        meta_obs = run.get("meta_obs")
        if meta_obs is not None:
            mwhere = f"{where}.meta_obs"
            if not isinstance(meta_obs, dict):
                fail(f"{mwhere}: not an object")
                continue
            check_obs(meta_obs, mwhere, catalog)
            if not any(scope_ops.match(k)
                       for k in meta_obs.get("counters", {})):
                fail(f"{mwhere}: metadata export without a <scope>.ops "
                     f"counter")
        write_obs = run.get("write_obs")
        if write_obs is not None:
            wwhere = f"{where}.write_obs"
            if not isinstance(write_obs, dict):
                fail(f"{wwhere}: not an object")
                continue
            check_obs(write_obs, wwhere, catalog)

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
