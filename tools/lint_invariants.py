#!/usr/bin/env python3
"""Repo-specific concurrency lints (docs/STATIC_ANALYSIS.md).

Three rules, each codifying a bug class this transport has actually
shipped (and fixed) before — or, for rule 3, one an adjacent code
path makes easy to ship:

Rule 1 — **no blocking send(2)/recv(2) reachable from an event-loop
handler**. The per-node epoll loop is the fabric's liveness: one loop
blocked on a full peer socket wedges every stream it pumps (the old
write-write cycle). The rule parses every function defined in
src/net/*.cc, builds the (naive, name-based) call graph, and walks it
from each ``eventLoop`` definition: any reachable call to an
unbounded-blocking primitive (``sendFully``, ``recvFully``, or a raw
``::send``/``::recv`` without MSG_DONTWAIT) is a failure unless the
path crosses an allowlisted function.

Rule 2 — **no mutex held across a network round trip**. A lock held
over ``request()`` (or a class-loader ``klasses_.load()``, whose hook
re-enters the registry) couples lock hold time to network latency and
deadlocks the moment the handler needs the same lock. The rule scans
every src/ translation unit, tracks lock-guard scopes by brace depth,
and flags round-trip calls made while any scope is open.

Rule 3 — **no blocking call in the compact-segment expand path**.
``InputBuffer::expandSegment`` runs inside ``commitChunk`` (which
``feed`` also goes through), which the TCP event loop drives directly when it recv()s a shuffle
payload into chunk storage: a blocking primitive (or network round
trip) reached from the expander wedges the loop exactly like rule 1's
bug. The rule merges the function tables of the expand-path
translation units (src/skyway/inputbuffer.cc, wirecompact.cc) and
walks the call graph from ``expandSegment``/``expandCompactSegment``,
flagging the same blocking primitives as rule 1 plus direct
``request()`` round trips.

Rules 1 and 2 carry an explicit allowlist with a justification per
entry — by-design blocking (the once-per-connection handshake) is
*checked*, not silenced: an allowlisted name that stops matching
anything fails the lint, so entries cannot rot. Rule 2's allowlist is
empty: request() runs the destination's handler synchronously on the
caller's thread, so a lock held across it has no exception.

``--selftest`` runs both engines over tests/lint_fixtures/ — every
``fail_*.cc`` snippet must trip its rule, every ``pass_*.cc`` must
not. Registered as the `lint-invariants` / `lint-invariants-selftest`
CTest targets (label: lint).
"""

import pathlib
import re
import sys

# --------------------------------------------------------------------
# Allowlists. Every entry must keep matching real code; a stale entry
# fails the lint so the list cannot silently outlive its reason.
# --------------------------------------------------------------------

#: Rule 1: functions the event-loop walk does not descend into.
ALLOW_LOOP_BLOCKING = {
    "acceptPending": (
        "handshake read on a freshly accepted connection: the "
        "connecting side sends the handshake immediately after "
        "connect(), so the read is bounded and happens once per "
        "connection"
    ),
    "connectTo": (
        "pair establishment: blocking connect + handshake "
        "send, once per connection, with poolMutex_ dropped (see "
        "pairFdOrClaim) so no other node's loop can stall on it"
    ),
}

#: Rule 2: (file suffix, lock variable name) -> justification.
ALLOW_LOCK_ROUND_TRIP = {}

#: Rule 1: unbounded-blocking primitives by name.
BLOCKING_PRIMITIVES = {"sendFully", "recvFully"}

#: Rule 2: calls that (may) perform a network round trip — the
#: blocking request() API and the class-loader hook (which re-enters
#: the registry and may itself issue a LOOKUP).
ROUND_TRIP_RE = re.compile(r"(?:\.|->)request\s*\(|klasses_\.load\s*\(")

#: Lock-scope openers (raw std guards are banned in favor of the
#: annotated wrappers, but the scanner understands both so a
#: regression is caught, not missed).
LOCK_RE = re.compile(
    r"\b(?:MutexLock|std::lock_guard<[^>]*>|std::unique_lock<[^>]*>|"
    r"std::scoped_lock(?:<[^>]*>)?)\s+(\w+)\s*[({]"
)

# Repo style puts the (possibly qualified) function name at column 0
# with the return type on the previous line and the open brace on its
# own column-0 line.
FUNC_DEF_RE = re.compile(r"^([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)\s*\(")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def strip_comments(text: str) -> str:
    """Drop comments and literal contents, preserving line structure.

    String/char literals are blanked so a braced JSON fragment inside
    a string cannot corrupt the brace-depth tracking."""
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group()),
                  text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r'"(?:\\.|[^"\\\n])*"', '""', text)
    return re.sub(r"'(?:\\.|[^'\\\n]){1,3}'", "''", text)


def parse_functions(text: str) -> dict:
    """name -> (start_line, body_text) for column-0 definitions."""
    lines = strip_comments(text).splitlines()
    funcs = {}
    i = 0
    while i < len(lines):
        m = FUNC_DEF_RE.match(lines[i])
        if not m:
            i += 1
            continue
        # Find the body's opening brace (column 0, repo style).
        j = i
        while j < len(lines) and not lines[j].startswith("{"):
            if lines[j].rstrip().endswith(";"):  # declaration only
                break
            j += 1
        if j >= len(lines) or not lines[j].startswith("{"):
            i += 1
            continue
        depth = 0
        body = []
        k = j
        while k < len(lines):
            depth += lines[k].count("{") - lines[k].count("}")
            body.append((k + 1, lines[k]))
            if depth <= 0:
                break
            k += 1
        name = m.group(1).split("::")[-1]
        funcs[name] = (i + 1, body)
        i = k + 1
    return funcs


def raw_blocking_net_call(body, idx) -> bool:
    """True if body[idx] starts a ::send/::recv without MSG_DONTWAIT
    in the statement (joined across up to 3 lines)."""
    stmt = " ".join(line for _, line in body[idx : idx + 3])
    return "MSG_DONTWAIT" not in stmt.split(";")[0]


def check_loop_blocking(path: pathlib.Path, text: str) -> tuple:
    """Rule 1 over one file. Returns (violations, allow_hits)."""
    funcs = parse_functions(text)
    if "eventLoop" not in funcs:
        return [], set()

    violations = []
    allow_hits = set()
    seen = set()
    # (function, path-so-far) BFS from the loop.
    queue = [("eventLoop", ["eventLoop"])]
    while queue:
        fn, chain = queue.pop(0)
        if fn in seen:
            continue
        seen.add(fn)
        _, body = funcs[fn]
        for idx, (lineno, line) in enumerate(body):
            for m in re.finditer(r"::(send|recv)\s*\(", line):
                if raw_blocking_net_call(body, idx):
                    violations.append(
                        f"{path}:{lineno}: blocking ::{m.group(1)}() "
                        f"reachable from the event loop via "
                        f"{' -> '.join(chain)}"
                    )
            for m in CALL_RE.finditer(line):
                callee = m.group(1)
                if callee in BLOCKING_PRIMITIVES:
                    violations.append(
                        f"{path}:{lineno}: blocking {callee}() "
                        f"reachable from the event loop via "
                        f"{' -> '.join(chain)}"
                    )
                elif callee in ALLOW_LOOP_BLOCKING:
                    allow_hits.add(callee)
                elif callee in funcs and callee not in seen:
                    queue.append((callee, chain + [callee]))
    return violations, allow_hits


#: Rule 3: the expand path's roots and translation units. The walk
#: merges the function tables so the cross-file call from
#: InputBuffer::expandSegment into wire::expandCompactSegment is
#: followed.
EXPAND_ROOTS = ("expandSegment", "expandCompactSegment")
EXPAND_PATH_FILES = (
    "src/skyway/inputbuffer.cc",
    "src/skyway/wirecompact.cc",
)


def check_expand_blocking(files) -> list:
    """Rule 3 over the expand-path units. `files`: [(path, text)]."""
    funcs = {}  # name -> (path, body)
    for path, text in files:
        for name, (_, body) in parse_functions(text).items():
            funcs.setdefault(name, (path, body))
    roots = [r for r in EXPAND_ROOTS if r in funcs]
    if not roots:
        return [
            "rule 3 found none of "
            + "/".join(EXPAND_ROOTS)
            + " — the expand path moved; update EXPAND_PATH_FILES"
        ]
    violations = []
    seen = set()
    queue = [(r, [r]) for r in roots]
    while queue:
        fn, chain = queue.pop(0)
        if fn in seen:
            continue
        seen.add(fn)
        path, body = funcs[fn]
        for idx, (lineno, line) in enumerate(body):
            for m in re.finditer(r"::(send|recv)\s*\(", line):
                if raw_blocking_net_call(body, idx):
                    violations.append(
                        f"{path}:{lineno}: blocking ::{m.group(1)}() "
                        f"in the expand path via {' -> '.join(chain)}"
                    )
            if re.search(r"(?:\.|->)request\s*\(", line):
                violations.append(
                    f"{path}:{lineno}: network round trip in the "
                    f"expand path via {' -> '.join(chain)}"
                )
            for m in CALL_RE.finditer(line):
                callee = m.group(1)
                if callee in BLOCKING_PRIMITIVES:
                    violations.append(
                        f"{path}:{lineno}: blocking {callee}() in "
                        f"the expand path via {' -> '.join(chain)}"
                    )
                elif callee in funcs and callee not in seen:
                    queue.append((callee, chain + [callee]))
    return violations


def check_lock_round_trip(path: pathlib.Path, text: str) -> tuple:
    """Rule 2 over one file. Returns (violations, allow_hits)."""
    violations = []
    allow_hits = set()
    depth = 0
    held = []  # (declared_depth, lock_variable, lineno)
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        for m in LOCK_RE.finditer(line):
            held.append((depth, m.group(1), lineno))
        if held and ROUND_TRIP_RE.search(line):
            allowed = [
                v for _, v, _ in held
                if any(
                    str(path).endswith(sfx) and v == var
                    for (sfx, var) in ALLOW_LOCK_ROUND_TRIP
                )
            ]
            if len(allowed) == len(held):
                allow_hits.update(allowed)
            else:
                locks = ", ".join(
                    f"{v} (line {ln})" for _, v, ln in held
                    if v not in allowed
                )
                violations.append(
                    f"{path}:{lineno}: network round trip with "
                    f"lock(s) held: {locks}"
                )
        depth += line.count("{") - line.count("}")
        while held and depth < held[-1][0]:
            held.pop()
    return violations, allow_hits


def run(root: pathlib.Path) -> int:
    violations = []
    loop_allow_hits = set()
    lock_allow_hits = set()

    for path in sorted((root / "src" / "net").glob("*.cc")):
        v, a = check_loop_blocking(path, path.read_text(encoding="utf-8"))
        violations += v
        loop_allow_hits |= a

    for sub in ("src",):
        for path in sorted((root / sub).rglob("*.cc")) + sorted(
            (root / sub).rglob("*.hh")
        ):
            v, a = check_lock_round_trip(
                path, path.read_text(encoding="utf-8")
            )
            violations += v
            lock_allow_hits |= a

    violations += check_expand_blocking(
        [(root / f, (root / f).read_text(encoding="utf-8"))
         for f in EXPAND_PATH_FILES if (root / f).exists()]
    )

    # Stale-allowlist check: every entry must still match real code.
    for name in sorted(set(ALLOW_LOOP_BLOCKING) - loop_allow_hits):
        violations.append(
            f"allowlist entry '{name}' (rule 1) no longer matches any "
            "call reachable from an event loop — remove it"
        )
    for (sfx, var) in sorted(
        set(ALLOW_LOCK_ROUND_TRIP)
        - {(s, v) for (s, v) in ALLOW_LOCK_ROUND_TRIP
           if v in lock_allow_hits}
    ):
        violations.append(
            f"allowlist entry '{var}' in {sfx} (rule 2) no longer "
            "matches any round trip under a lock — remove it"
        )

    if violations:
        print("lint-invariants FAILED:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(
        "lint-invariants OK: no blocking net call reachable from an "
        "event loop (checked allowlist: "
        f"{', '.join(sorted(loop_allow_hits))}); no lock held across "
        "a round trip (checked allowlist: "
        f"{', '.join(sorted(lock_allow_hits)) or 'none'}); no blocking "
        "call in the compact expand path"
    )
    return 0


def selftest(root: pathlib.Path) -> int:
    fixtures = root / "tests" / "lint_fixtures"
    cases = sorted(fixtures.glob("*.cc"))
    if not cases:
        sys.exit(f"lint-invariants selftest: no fixtures in {fixtures}")
    failures = []
    for path in cases:
        text = path.read_text(encoding="utf-8")
        if "expand_blocking" in path.name:
            found = check_expand_blocking([(path, text)])
        elif "loop_blocking" in path.name:
            found, _ = check_loop_blocking(path, text)
        elif "lock_roundtrip" in path.name:
            found, _ = check_lock_round_trip(path, text)
        else:
            failures.append(f"{path.name}: unknown rule in file name")
            continue
        expect_fail = path.name.startswith("fail_")
        if expect_fail and not found:
            failures.append(f"{path.name}: expected a violation, got none")
        elif not expect_fail and found:
            failures.append(
                f"{path.name}: expected clean, got: {found[0]}"
            )
    if failures:
        print("lint-invariants selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"lint-invariants selftest OK: {len(cases)} fixtures behave")
    return 0


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--selftest"]
    root = pathlib.Path(args[0] if args else ".")
    if "--selftest" in sys.argv[1:]:
        return selftest(root)
    return run(root)


if __name__ == "__main__":
    sys.exit(main())
