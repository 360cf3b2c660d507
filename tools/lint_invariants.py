#!/usr/bin/env python3
"""Cross-layer contract analyzer for the Mayflower tree (no clang required).

Eight checks, each enforcing a repo-wide contract that a plain grep cannot
(the scanner strips comments and string literals first, so prose mentioning a
banned identifier does not trip the gate):

  boundary  Decision code reads only the NetworkView snapshot. The files
            that cost candidates and pick replicas/paths — and the sharded
            state plane they read through (shard map, view, flow table) —
            must never name raw fabric/simulator state (flow_sim,
            port_bytes, poll_port_stats, flow_record, switch_at).

  nondet    Nothing under src/ may introduce nondeterminism: no wall clocks,
            no unseeded randomness, no pointer-keyed ordered containers, and
            no range-for over std::unordered_* members (hash order leaks
            into iteration order). Deterministic replay is what makes every
            CI diff in ci.sh meaningful.

  guards    Every common::Mutex member must actually guard something: at
            least one GUARDED_BY(<name>) in the same file. And outside
            src/common/sync.hpp nothing uses std::mutex directly — raw
            mutexes are invisible to Clang Thread Safety Analysis.

  rpc       Every RPC is answered where the method table says: the rows
            of MAYFLOWER_RPC_METHODS in src/fs/rpc/messages.hpp (the C++
            list that also generates rpc::Method, to_string and the wire
            tests) name each method's owning server families, and each
            method has a dispatch arm in exactly its owners' server files.

  metrics   Every metric name registered in src/ matches an entry of its
            kind in the metrics catalog (src/obs/metrics_catalog.json),
            every catalog entry is registered by some code, and every
            metric-name string tools/check_metrics.py tests is in the
            catalog. Metric names must carry canonical unit suffixes.

  flagdoc   Every CLI flag mayflower_sim.cpp validates is documented in the
            README flag table (between flag-table markers) and vice versa.

  units     Identifiers carrying units use the canonical suffixes _bps,
            _bytes, _sec, _us: the non-canonical spellings (_seconds, _ms,
            _bw, ...) are banned across src/ tools/ tests/ bench/.
            common::units (Bps, Bytes) provides the strong-typedef seed.

  lockorder The lock acquisition graph — ACQUIRED_BEFORE/ACQUIRED_AFTER
            annotations plus MutexLock nesting observed in code — must be
            acyclic. A cycle is a latent deadlock.

Waivers: a comment containing "lint:allow(<check>)" suppresses that check's
findings on its own line and the next line. Waive sparingly and say why in
the same comment. --max-waivers=N fails the run when the tree carries more
than N waivers (fixtures excluded), so suppressions cannot accumulate
silently.

Usage:
  tools/lint_invariants.py [--check=<name>|all] [--root=DIR] [--max-waivers=N]
  tools/lint_invariants.py --self-test     # run against tools/lint_fixtures
"""

import argparse
import ast
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_metrics import expand_scope, load, pattern_regex  # noqa: E402

BOUNDARY_FILES = [
    "src/policy/replica_policy.cpp", "src/policy/replica_policy.hpp",
    "src/policy/scheme.cpp", "src/policy/scheme.hpp",
    "src/policy/hedera.cpp", "src/policy/hedera.hpp",
    "src/flowserver/selector.cpp", "src/flowserver/selector.hpp",
    "src/flowserver/multiread.cpp", "src/flowserver/multiread.hpp",
    "src/flowserver/bandwidth_model.cpp", "src/flowserver/bandwidth_model.hpp",
    # Adaptive telemetry (DESIGN.md §14) decides which poll samples to
    # apply from window rates the sweep hands it — pure bookkeeping that
    # must never reach into fabric or shard state itself.
    "src/flowserver/telemetry.cpp", "src/flowserver/telemetry.hpp",
    # Write-path decision code (DESIGN.md §15): chain planning and the
    # placement rankings are pure functions of the view — they must stay as
    # fabric-blind as read selection.
    "src/flowserver/writechain.cpp", "src/flowserver/writechain.hpp",
    "src/policy/write_placement.cpp", "src/policy/write_placement.hpp",
    # The sharded state plane: everything a decision reads flows through
    # these, so they must stay as fabric-blind as the decision code itself.
    "src/net/shard_map.cpp", "src/net/shard_map.hpp",
    "src/net/network_view.cpp", "src/net/network_view.hpp",
    "src/flowserver/flow_state.cpp", "src/flowserver/flow_state.hpp",
]
BOUNDARY_BANNED = ["flow_sim", "port_bytes", "poll_port_stats", "flow_record",
                   "switch_at"]
# The decision files proper (everything above the shard-plane block) must
# also never reach into shard bookkeeping: which shard a flow lives in and
# when a shard section reloads is the refresh path's business; decisions see
# one coherent view. Not applied to the shard-plane files, which define
# these operations. The metadata plane's routing internals (which nameserver
# owns a path, how adoption rebuilds a dead shard's keys) are banned for the
# same reason: decision code asks the router, never the shard map.
DECISION_FILE_COUNT = 18  # prefix of BOUNDARY_FILES the shard ban covers
SHARD_INTERNAL_BANNED = ["shard_of_node", "shard_of_path", "sync_shard_into",
                         "begin_sync", "sync_flow", "end_sync",
                         "shard_version", "stamp_shard", "shard_stamp",
                         "owner_of_path", "adopt_from_dataservers"]

# Identifiers that smuggle wall-clock time or ambient randomness into a
# deterministic simulation. Rng (src/common/rng.hpp) is the one sanctioned
# randomness source: seeded, serializable, replayable.
NONDET_BANNED = [
    "system_clock", "steady_clock", "high_resolution_clock",
    "random_device", "gettimeofday", "clock_gettime", "localtime", "gmtime",
    "srand", "drand48",
]
# Bare rand( / time( need word-boundary care: "operand(", "runtime(" are fine.
NONDET_BANNED_CALLS = ["rand", "time"]

# ---------------------------------------------------------------------------
# rpc: the method table is C++ (MAYFLOWER_RPC_METHODS); this pass reads its
# rows and maps each owner family it names to that family's server file.
RPC_MESSAGES_HPP = "src/fs/rpc/messages.hpp"
RPC_SERVER_FILES = {
    "nameserver": "src/fs/nameserver.cpp",
    "dataserver": "src/fs/dataserver.cpp",
    "flowserver": "src/fs/flowserver_service.cpp",
    "meta": "src/fs/meta/plane.cpp",
}

# ---------------------------------------------------------------------------
# metrics: the catalog of metric names src/ can register, and the validator
# whose name checks must stay inside it. src/obs/metrics.* defines the
# registry API itself and is excluded from registration extraction.
METRICS_CATALOG = "src/obs/metrics_catalog.json"
METRICS_VALIDATOR = "tools/check_metrics.py"

# ---------------------------------------------------------------------------
# flagdoc: the CLI whose flags must match the README flag table.
FLAGDOC_CLI = "tools/mayflower_sim.cpp"
FLAGDOC_README = "README.md"
FLAGDOC_BEGIN = "<!-- flag-table:begin -->"
FLAGDOC_END = "<!-- flag-table:end -->"

# ---------------------------------------------------------------------------
# units: canonical suffixes are _bps, _bytes, _sec, _us. Everything below is
# a non-canonical spelling of one of those. The suffix test runs on
# identifiers with trailing underscores stripped, so member names (foo_ms_)
# cannot evade it.
UNIT_BANNED_SUFFIXES = (
    "_seconds", "_second", "_secs", "_millis", "_msec", "_ms",
    "_usec", "_usecs", "_micros", "_nanos", "_bw",
)
# Converter/formatter names where the suffix documents the PARAMETER's unit
# (SimTime::from_millis takes milliseconds and returns a SimTime), not a
# quantity the identifier carries. These are the whole sanctioned list.
UNIT_ALLOWED_IDENTIFIERS = {
    "from_seconds", "from_millis", "from_micros", "from_nanos",
    "human_seconds",
}
UNIT_DIRS = ("src", "tools", "tests", "bench")

CHECKS = ("boundary", "nondet", "guards", "rpc", "metrics", "flagdoc",
          "units", "lockorder")


def strip_comments_and_strings(text):
    """Returns (code_lines, raw_lines): raw lines as-is, and the same lines
    with comments and string/char literal contents blanked out. Line count
    and column positions are preserved."""
    raw_lines = text.split("\n")
    out = []
    i = 0
    n = len(text)
    buf = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                buf.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                buf.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                buf.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                buf.append("'")
                i += 1
                continue
            buf.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                buf.append("\n")
            else:
                buf.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                buf.append("  ")
                i += 2
                continue
            buf.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                buf.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                buf.append(quote)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                buf.append("\n")
            else:
                buf.append(" ")
        i += 1
    return "".join(buf).split("\n"), raw_lines


def waived(raw_lines, lineno, check):
    """lint:allow(<check>) on this line or the previous one."""
    token = "lint:allow(%s)" % check
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines) and token in raw_lines[ln - 1]:
            return True
    return False


def iter_source_files(root, subdir="src"):
    for dirpath, _, filenames in sorted(os.walk(os.path.join(root, subdir))):
        for name in sorted(filenames):
            if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                yield os.path.join(dirpath, name)


def check_boundary(root, findings, files=None):
    if files is not None:
        paths = [(p, True) for p in files]
    else:
        paths = [(os.path.join(root, f), i < DECISION_FILE_COUNT)
                 for i, f in enumerate(BOUNDARY_FILES)]
    pattern = re.compile(
        r"\b(%s)\b" % "|".join(re.escape(b) for b in BOUNDARY_BANNED))
    shard_pattern = re.compile(
        r"\b(%s)\b" % "|".join(re.escape(b) for b in SHARD_INTERNAL_BANNED))
    for path, decision_file in paths:
        if not os.path.exists(path):
            findings.append((path, 0, "boundary",
                             "expected decision-boundary file is missing"))
            continue
        with open(path, encoding="utf-8") as f:
            code, raw = strip_comments_and_strings(f.read())
        for idx, line in enumerate(code, start=1):
            if waived(raw, idx, "boundary"):
                continue
            m = pattern.search(line)
            if m:
                findings.append((path, idx, "boundary",
                                 "decision code names raw fabric/sim state "
                                 "'%s'" % m.group(1)))
                continue
            if decision_file:
                m = shard_pattern.search(line)
                if m:
                    findings.append((path, idx, "boundary",
                                     "decision code reaches into shard "
                                     "bookkeeping '%s'" % m.group(1)))


def unordered_members(code_lines):
    """Names declared as std::unordered_map/set members (trailing '_')."""
    decl = re.compile(
        r"std::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+_)\s*[;{=]")
    names = set()
    for line in code_lines:
        for m in decl.finditer(line):
            names.add(m.group(1))
    return names


def check_nondet(root, findings, files=None):
    paths = list(files) if files is not None else list(iter_source_files(root))
    banned = re.compile(
        r"\b(%s)\b" % "|".join(re.escape(b) for b in NONDET_BANNED))
    banned_call = re.compile(
        r"(?<![\w:.>])(%s)\s*\(" % "|".join(NONDET_BANNED_CALLS))
    ptr_key = re.compile(r"std::(?:map|set)\s*<[^,>]*\*")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            code, raw = strip_comments_and_strings(f.read())
        unordered = unordered_members(code)
        range_for = None
        if unordered:
            range_for = re.compile(
                r"for\s*\(.*:\s*(?:\w+[.->]+)?(%s)\s*\)" %
                "|".join(re.escape(u) for u in unordered))
        for idx, line in enumerate(code, start=1):
            if waived(raw, idx, "nondet"):
                continue
            m = banned.search(line)
            if m:
                findings.append((path, idx, "nondet",
                                 "nondeterministic source '%s'" % m.group(1)))
                continue
            m = banned_call.search(line)
            if m:
                findings.append((path, idx, "nondet",
                                 "call to '%s()' (wall clock / ambient "
                                 "randomness)" % m.group(1)))
                continue
            if ptr_key.search(line):
                findings.append((path, idx, "nondet",
                                 "pointer-keyed ordered container (iteration "
                                 "order follows the allocator)"))
                continue
            if range_for is not None:
                m = range_for.search(line)
                if m:
                    findings.append((path, idx, "nondet",
                                     "range-for over unordered member '%s' "
                                     "(hash order is not deterministic)" %
                                     m.group(1)))


def check_guards(root, findings, files=None):
    paths = list(files) if files is not None else list(iter_source_files(root))
    mutex_decl = re.compile(r"common::Mutex\s+(\w+)\s*;")
    std_mutex = re.compile(r"\bstd::(?:mutex|recursive_mutex|shared_mutex)\b")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            code, raw = strip_comments_and_strings(f.read())
        text = "\n".join(code)
        for idx, line in enumerate(code, start=1):
            if path.replace("\\", "/").endswith("src/common/sync.hpp"):
                break  # the wrapper itself legitimately holds a std::mutex
            if std_mutex.search(line) and not waived(raw, idx, "guards"):
                findings.append((path, idx, "guards",
                                 "raw std::mutex is invisible to thread "
                                 "safety analysis; use common::Mutex"))
        for idx, line in enumerate(code, start=1):
            m = mutex_decl.search(line)
            if m is None or waived(raw, idx, "guards"):
                continue
            name = m.group(1)
            if "GUARDED_BY(%s)" % name not in text and \
               "PT_GUARDED_BY(%s)" % name not in text:
                findings.append((path, idx, "guards",
                                 "mutex '%s' guards no member: annotate the "
                                 "state it protects with GUARDED_BY(%s)" %
                                 (name, name)))


# ---------------------------------------------------------------------------
# rpc-owners


def read_stripped(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code, raw = strip_comments_and_strings(text)
    return code, raw


RPC_TABLE_RE = re.compile(
    r"#define\s+MAYFLOWER_RPC_METHODS\(X\)((?:[^\n]*\\\n)*[^\n]*)")
RPC_ROW_RE = re.compile(
    r"X\(\s*(k\w+)\s*,\s*\d+\s*,\s*\w+\s*,\s*\w+\s*,\s*\"([^\"]*)\"\s*\)")


def parse_method_table(text):
    """(method, [owner, ...]) per MAYFLOWER_RPC_METHODS row, or None."""
    m = RPC_TABLE_RE.search(text)
    if m is None:
        return None
    return [(name, owners.split())
            for name, owners in RPC_ROW_RE.findall(m.group(1))]


def check_rpc(root, findings, cfg=None):
    if cfg is None:
        cfg = {
            "messages_hpp": os.path.join(root, RPC_MESSAGES_HPP),
            "servers": {o: os.path.join(root, p)
                        for o, p in RPC_SERVER_FILES.items()},
        }
    hpp = cfg["messages_hpp"]
    if not os.path.exists(hpp):
        findings.append((hpp, 0, "rpc", "rpc message header missing"))
        return
    with open(hpp, encoding="utf-8") as f:
        rows = parse_method_table(f.read())
    if not rows:
        findings.append((hpp, 0, "rpc",
                         "no MAYFLOWER_RPC_METHODS rows found"))
        return

    # Dispatch arms: `case Method::kX` or `method == Method::kX` in a server
    # file counts as dispatching kX there. Client stubs (transport->call with
    # a Method argument) intentionally do not match.
    dispatch_re = re.compile(
        r"(?:case\s+Method::|method\s*==\s*Method::)(k\w+)")
    dispatched = {}  # owner -> set of methods
    for owner, path in cfg["servers"].items():
        if not os.path.exists(path):
            findings.append((path, 0, "rpc",
                             "server file for '%s' is missing" % owner))
            dispatched[owner] = set()
            continue
        code, _ = read_stripped(path)
        dispatched[owner] = set(dispatch_re.findall("\n".join(code)))
    for name, owners in rows:
        for owner in owners:
            if owner not in dispatched:
                findings.append((hpp, 0, "rpc",
                                 "Method::%s names owner '%s', which has no "
                                 "server file" % (name, owner)))
            elif name not in dispatched[owner]:
                findings.append((cfg["servers"][owner], 0, "rpc",
                                 "Method::%s owned by '%s' but never "
                                 "dispatched there" % (name, owner)))
        for owner, seen in sorted(dispatched.items()):
            if name in seen and owner not in owners:
                findings.append((cfg["servers"][owner], 0, "rpc",
                                 "Method::%s dispatched in '%s' which does "
                                 "not own it (owners: %s)" %
                                 (name, owner, ", ".join(owners))))


# ---------------------------------------------------------------------------
# metrics-contract

METRIC_CALL_RE = re.compile(r"[.>](counter|gauge|histogram)\s*\(")
METRIC_NAME_SHAPE = re.compile(r"^[a-z<][a-z0-9_.<>-]*$")


def extract_metric_registrations(paths):
    """Finds registry.counter/gauge/histogram registration sites.

    Returns (exact, dynamic): exact is [(path, line, kind, name)] for sites
    whose argument is a single string literal; dynamic is
    [(path, line, kind, [literal fragments])] for concatenated names.
    """
    exact, dynamic = [], []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        code_lines, raw_lines = strip_comments_and_strings(text)
        code = "\n".join(code_lines)
        raw = "\n".join(raw_lines)
        for m in METRIC_CALL_RE.finditer(code):
            kind = m.group(1)
            # Walk the first argument: to the matching ',' or ')' at depth 0.
            i = m.end()
            depth = 0
            start = i
            while i < len(code):
                c = code[i]
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    if depth == 0:
                        break
                    depth -= 1
                elif c == "," and depth == 0:
                    break
                i += 1
            arg_code = code[start:i]
            lineno = code.count("\n", 0, m.start()) + 1
            # String literal spans keep their quotes in the stripped text;
            # read the blanked contents back from the raw text (the stripper
            # preserves offsets).
            fragments = []
            for lit in re.finditer(r'"([^"]*)"', arg_code):
                fragments.append(raw[start + lit.start() + 1:
                                     start + lit.end() - 1])
            stripped = arg_code.strip()
            if re.fullmatch(r'"[^"]*"', stripped) and len(fragments) == 1:
                exact.append((path, lineno, kind, fragments[0]))
            elif fragments:
                dynamic.append((path, lineno, kind, fragments))
            else:
                # No literal at all (e.g. a pass-through helper): nothing to
                # check here; the helper's own call sites carry the names.
                pass
    return exact, dynamic


def metric_strings_in_module(path):
    """Every metric-shaped string constant in the module (f-string parts
    included), with line numbers — the names check_metrics.py validates."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            s = node.value
            if "." in s and METRIC_NAME_SHAPE.fullmatch(s):
                out.append((node.lineno, s))
    return out


def check_metrics_contract(root, findings, cfg=None):
    if cfg is None:
        src_files = [p for p in iter_source_files(root, "src")
                     if not p.replace("\\", "/").endswith(
                         ("src/obs/metrics.hpp", "src/obs/metrics.cpp"))]
        cfg = {
            "src_files": src_files,
            "catalog": os.path.join(root, METRICS_CATALOG),
            "validator": os.path.join(root, METRICS_VALIDATOR),
        }
    cat_path = cfg["catalog"]
    catalog = load(cat_path)
    if catalog is None:
        findings.append((cat_path, 0, "metrics",
                         "metrics catalog missing or not JSON"))
        return
    patterns = {m["name"]: m["kind"] for m in catalog["metrics"]}
    compiled = {p: pattern_regex(p, catalog) for p in patterns}
    expanded = {p: expand_scope(p, catalog) for p in patterns}

    exact, dynamic = extract_metric_registrations(cfg["src_files"])

    # 1. Every registration must be in the catalog, with the right kind,
    #    and carry a canonical unit suffix.
    covered = set()
    for path, lineno, kind, name in exact:
        hits = [p for p, rx in compiled.items() if rx.fullmatch(name)]
        if not hits:
            findings.append((path, lineno, "metrics",
                             "metric '%s' registered here but not in the "
                             "metrics catalog" % name))
        for p in hits:
            covered.add(p)
            if patterns[p] != kind:
                findings.append((path, lineno, "metrics",
                                 "metric '%s' registered as %s but the "
                                 "catalog says %s" %
                                 (name, kind, patterns[p])))
        leaf = name.rsplit(".", 1)[-1]
        for suffix in UNIT_BANNED_SUFFIXES:
            if leaf.endswith(suffix):
                findings.append((path, lineno, "metrics",
                                 "metric '%s' uses non-canonical unit "
                                 "suffix '%s' (use _bps/_bytes/_sec/_us)" %
                                 (name, suffix)))
    for path, lineno, kind, fragments in dynamic:
        hits = [p for p in patterns
                if any(all(frag in e for frag in fragments)
                       for e in expanded[p])]
        if not hits:
            findings.append((path, lineno, "metrics",
                             "dynamic metric registration (fragments %s) "
                             "matches no catalog pattern" % fragments))
        for p in hits:
            covered.add(p)
            if patterns[p] != kind:
                findings.append((path, lineno, "metrics",
                                 "dynamic %s registration matches pattern "
                                 "'%s' declared as %s" %
                                 (kind, p, patterns[p])))

    # 2. No dead entries: every catalog pattern must be registered by some
    #    code the analyzer saw.
    for p in sorted(patterns):
        if p not in covered:
            findings.append((cat_path, 0, "metrics",
                             "catalog pattern '%s' is registered by nothing "
                             "in src/ (dead entry)" % p))

    # 3. Every metric-name string the validator tests must belong to a
    #    catalog pattern (full match, or a fragment of one: f-strings such
    #    as "meta.shard.{i}.ops" appear in the code as partial strings).
    validator = cfg["validator"]
    all_expanded = [e for exp in expanded.values() for e in exp]
    for lineno, s in metric_strings_in_module(validator):
        if s in patterns:
            continue
        if any(rx.fullmatch(s) for rx in compiled.values()):
            continue
        if any(s in e for e in all_expanded):
            continue
        findings.append((validator, lineno, "metrics",
                         "the validator tests '%s', which no catalog "
                         "pattern covers" % s))


# ---------------------------------------------------------------------------
# flag-doc


def parse_cli_flags(path, findings):
    """The string literals inside the Flags::validate({...}) whitelist."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"validate\s*\(\s*\{", text)
    if m is None:
        findings.append((path, 0, "flagdoc",
                         "no flags.validate({...}) whitelist found"))
        return set()
    i = m.end()
    depth = 1
    start = i
    while i < len(text) and depth > 0:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    return set(re.findall(r'"([a-z][a-z0-9-]*)"', text[start:i - 1]))


def check_flag_doc(root, findings, cfg=None):
    if cfg is None:
        cfg = {
            "cli": os.path.join(root, FLAGDOC_CLI),
            "readme": os.path.join(root, FLAGDOC_README),
        }
    cli = cfg["cli"]
    readme = cfg["readme"]
    if not os.path.exists(cli):
        findings.append((cli, 0, "flagdoc", "CLI source missing"))
        return
    parsed = parse_cli_flags(cli, findings)
    if not os.path.exists(readme):
        findings.append((readme, 0, "flagdoc", "README missing"))
        return
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    begin = text.find(FLAGDOC_BEGIN)
    end = text.find(FLAGDOC_END)
    if begin < 0 or end < 0 or end < begin:
        findings.append((readme, 0, "flagdoc",
                         "no flag table section (%s ... %s)" %
                         (FLAGDOC_BEGIN, FLAGDOC_END)))
        return
    section = text[begin:end]
    documented = set(re.findall(r"--([a-z][a-z0-9-]*)", section))
    for flag in sorted(parsed):
        if flag not in documented:
            findings.append((readme, 0, "flagdoc",
                             "--%s is parsed by mayflower_sim but missing "
                             "from the README flag table" % flag))
    for flag in sorted(documented):
        if flag not in parsed:
            findings.append((readme, 0, "flagdoc",
                             "--%s is in the README flag table but "
                             "mayflower_sim does not parse it" % flag))


# ---------------------------------------------------------------------------
# unit-suffix

UNIT_IDENT_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def unit_source_files(root):
    out = []
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    for subdir in UNIT_DIRS:
        for path in iter_source_files(root, subdir):
            if not path.startswith(fixture_dir):
                out.append(path)
    return out


def check_units(root, findings, files=None):
    paths = list(files) if files is not None else unit_source_files(root)
    for path in paths:
        code, raw = read_stripped(path)
        for idx, line in enumerate(code, start=1):
            if waived(raw, idx, "units"):
                continue
            seen = set()
            for m in UNIT_IDENT_RE.finditer(line):
                ident = m.group(0)
                if ident in seen:
                    continue
                seen.add(ident)
                if ident in UNIT_ALLOWED_IDENTIFIERS:
                    continue
                base = ident.rstrip("_")
                for suffix in UNIT_BANNED_SUFFIXES:
                    if base.endswith(suffix):
                        findings.append(
                            (path, idx, "units",
                             "identifier '%s' uses non-canonical unit "
                             "suffix '%s' (canonical: _bps, _bytes, _sec, "
                             "_us)" % (ident, suffix)))
                        break
    return findings


# ---------------------------------------------------------------------------
# lock-order

LOCK_DECL_RE = re.compile(
    r"\b(?:common::)?MutexLock\s+\w+\s*\(\s*(&?\s*[A-Za-z_][\w]*"
    r"(?:(?:\.|->)[A-Za-z_][\w]*)*)\s*[),]")
ACQ_BEFORE_RE = re.compile(r"\b(\w+)\s+ACQUIRED_BEFORE\(([^)]*)\)")
ACQ_AFTER_RE = re.compile(r"\b(\w+)\s+ACQUIRED_AFTER\(([^)]*)\)")


def normalize_lock_expr(expr):
    expr = re.sub(r"\s+", "", expr).lstrip("&")
    if expr.startswith("this->"):
        expr = expr[len("this->"):]
    return expr


def collect_lock_edges(paths):
    """Edges (held -> acquired) from TSA annotations and observed MutexLock
    nesting. Self-edges are dropped: the static key cannot distinguish two
    instances of the same member, so same-name nesting (per-shard locks
    taken in sequence under a parent lock) is not evidence of a cycle."""
    edges = {}  # (a, b) -> (path, line)

    def add(a, b, path, line):
        if a != b and (a, b) not in edges:
            edges[(a, b)] = (path, line)

    for path in paths:
        code_lines, raw = read_stripped(path)
        # Preprocessor lines define the annotation macros themselves (and
        # never acquire a lock): blank them, keeping offsets intact.
        code_lines = [" " * len(l) if l.lstrip().startswith("#") else l
                      for l in code_lines]
        code = "\n".join(code_lines)
        for m in ACQ_BEFORE_RE.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            if waived(raw, line, "lockorder"):
                continue
            holder = normalize_lock_expr(m.group(1))
            for other in m.group(2).split(","):
                if other.strip():
                    add(holder, normalize_lock_expr(other), path, line)
        for m in ACQ_AFTER_RE.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            if waived(raw, line, "lockorder"):
                continue
            holder = normalize_lock_expr(m.group(1))
            for other in m.group(2).split(","):
                if other.strip():
                    add(normalize_lock_expr(other), holder, path, line)

        # Observed nesting: a MutexLock constructed while another is live in
        # an enclosing (or the same) scope orders the two mutexes.
        locks = []  # stack of (decl_depth, key)
        depth = 0
        events = []  # (pos, kind, payload)
        for m in re.finditer(r"[{}]", code):
            events.append((m.start(), m.group(0), None))
        for m in LOCK_DECL_RE.finditer(code):
            events.append((m.start(), "lock", normalize_lock_expr(m.group(1))))
        events.sort(key=lambda e: e[0])
        for pos, kind, payload in events:
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
                while locks and locks[-1][0] > depth:
                    locks.pop()
            else:
                line = code.count("\n", 0, pos) + 1
                if waived(raw, line, "lockorder"):
                    continue
                for _, held in locks:
                    add(held, payload, path, line)
                locks.append((depth, payload))
    return edges


def check_lockorder(root, findings, files=None):
    paths = list(files) if files is not None else \
        list(iter_source_files(root, "src"))
    edges = collect_lock_edges(paths)
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)

    # DFS cycle detection; report each cycle once, anchored at the edge that
    # closes it.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []
    reported = set()

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color.get(nxt, WHITE) == GRAY:
                cycle = stack[stack.index(nxt):] + [nxt]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    path, line = edges[(node, nxt)]
                    findings.append(
                        (path, line, "lockorder",
                         "lock-order cycle: %s (latent deadlock; fix the "
                         "acquisition order or split the lock)" %
                         " -> ".join(cycle)))
            elif color.get(nxt, WHITE) == WHITE:
                visit(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color.get(node, WHITE) == WHITE:
            visit(node)
    return findings


# ---------------------------------------------------------------------------


def count_waivers(root):
    """lint:allow( occurrences across the scanned tree, fixtures excluded."""
    total = 0
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    for subdir in UNIT_DIRS:
        for path in iter_source_files(root, subdir):
            if path.startswith(fixture_dir):
                continue
            with open(path, encoding="utf-8") as f:
                total += f.read().count("lint:allow(")
    return total


def run_checks(root, which, files=None):
    findings = []
    if which in ("boundary", "all"):
        check_boundary(root, findings, files)
    if which in ("nondet", "all"):
        check_nondet(root, findings, files)
    if which in ("guards", "all"):
        check_guards(root, findings, files)
    if which in ("units", "all"):
        check_units(root, findings, files)
    if which in ("lockorder", "all"):
        check_lockorder(root, findings, files)
    # The cross-file contract checks take no per-file override: they always
    # analyze the whole tree (fixture self-tests drive them through cfg).
    if files is None:
        if which in ("rpc", "all"):
            check_rpc(root, findings)
        if which in ("metrics", "all"):
            check_metrics_contract(root, findings)
        if which in ("flagdoc", "all"):
            check_flag_doc(root, findings)
    return findings


def fixture_rpc_cfg(dirpath):
    return {
        "messages_hpp": os.path.join(dirpath, "messages.hpp"),
        "servers": {"server": os.path.join(dirpath, "server.cpp"),
                    "other": os.path.join(dirpath, "other.cpp")},
    }


def fixture_metrics_cfg(dirpath):
    return {
        "src_files": [os.path.join(dirpath, "registrations.cpp")],
        "catalog": os.path.join(dirpath, "catalog.json"),
        "validator": os.path.join(dirpath, "validator.py"),
    }


def fixture_flagdoc_cfg(dirpath):
    return {
        "cli": os.path.join(dirpath, "sim.cpp"),
        "readme": os.path.join(dirpath, "readme.md"),
    }


def self_test(root):
    """The fixtures encode the analyzer's own contract: every bad fixture
    must produce exactly its expected findings, every good one zero."""
    fixture_dir = os.path.join(root, "tools", "lint_fixtures")
    failures = []

    good = os.path.join(fixture_dir, "good.cpp")
    got = run_checks(root, "all", files=[good])
    got += run_checks(root, "boundary", files=[good])
    for f in got:
        failures.append("good.cpp flagged: %s:%d [%s] %s" % f)

    expectations = {
        "bad_boundary.cpp": ("boundary", 6),
        "bad_nondet.cpp": ("nondet", 4),
        "bad_guards.cpp": ("guards", 2),
        "bad_units.cpp": ("units", 3),
        "bad_lockorder.cpp": ("lockorder", 1),
    }
    for name, (check, want) in sorted(expectations.items()):
        path = os.path.join(fixture_dir, name)
        got = run_checks(root, check, files=[path])
        if len(got) != want:
            failures.append(
                "%s: expected %d %s findings, got %d: %r" %
                (name, want, check, len(got), got))

    # Cross-file contract checks run against miniature fixture trees via
    # their cfg overrides: one violating tree, one clean tree per pass.
    structural = {
        "rpc": (check_rpc, fixture_rpc_cfg, "rpc_bad", 3, "rpc_good"),
        "metrics": (check_metrics_contract, fixture_metrics_cfg,
                    "metrics_bad", 4, "metrics_good"),
        "flagdoc": (check_flag_doc, fixture_flagdoc_cfg,
                    "flagdoc_bad", 2, "flagdoc_good"),
    }
    for check, (fn, mkcfg, bad, want, goodtree) in sorted(structural.items()):
        got = []
        fn(root, got, cfg=mkcfg(os.path.join(fixture_dir, bad)))
        if len(got) != want:
            failures.append("%s: expected %d %s findings, got %d: %r" %
                            (bad, want, check, len(got), got))
        got = []
        fn(root, got, cfg=mkcfg(os.path.join(fixture_dir, goodtree)))
        if got:
            failures.append("%s flagged: %r" % (goodtree, got))

    if failures:
        for f in failures:
            print("SELF-TEST FAIL: %s" % f, file=sys.stderr)
        return 1
    print("self-test OK (%d fixtures)" %
          (len(expectations) + 2 * len(structural) + 1))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", default="all",
                    choices=list(CHECKS) + ["all"])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--max-waivers", type=int, default=None,
                    help="fail when the tree carries more than N "
                         "lint:allow(...) waivers (fixtures excluded)")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.root)

    findings = run_checks(args.root, args.check)
    for path, lineno, check, msg in findings:
        rel = os.path.relpath(path, args.root)
        print("%s:%d: [%s] %s" % (rel, lineno, check, msg), file=sys.stderr)
    if findings:
        print("%d invariant violation(s)" % len(findings), file=sys.stderr)
        return 1
    if args.max_waivers is not None:
        waivers = count_waivers(args.root)
        if waivers > args.max_waivers:
            print("waiver budget exceeded: %d lint:allow(...) waivers in "
                  "the tree, budget is %d" % (waivers, args.max_waivers),
                  file=sys.stderr)
            return 1
        print("lint_invariants: %s clean (%d/%d waivers)" %
              (args.check, waivers, args.max_waivers))
        return 0
    print("lint_invariants: %s clean" % args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
