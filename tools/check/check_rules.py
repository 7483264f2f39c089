"""The textmr-check rule catalog (DESIGN.md §13).

Every rule consumes the check_model IR and yields Findings; rules never
touch raw source, so both frontends feed them identically. Each rule is
registered in RULES with a stable kebab-case name — the name users
write in `// check:allow(<rule>)` suppressions and the corpus writes in
`// check:expect(<rule>)` markers.
"""

from __future__ import annotations

import re

from check_lexer import IDENT, Token
from check_model import FileModel, Finding, FunctionModel

# Enums whose dispatch switches must be exhaustive, by unqualified name,
# with sentinel enumerators that no switch is expected to handle.
EXHAUSTIVE_ENUMS: dict[str, set[str]] = {
    "Op": {"kNumOps"},
    "MsgType": set(),
    "ActionKind": set(),
}

_DECODER_FN_RE = re.compile(r"^(decode|parse|load)_")

# Token-sequence helpers -------------------------------------------------------


def _seq(tokens: list[Token], i: int, *texts: str) -> bool:
    if i + len(texts) > len(tokens):
        return False
    return all(tokens[i + k].text == t for k, t in enumerate(texts))


def _find_stmt_end(tokens: list[Token], i: int) -> int:
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth <= 0:
            return i
        i += 1
    return len(tokens)


def _stmt_text(tokens: list[Token], i: int, j: int) -> str:
    return " ".join(t.text for t in tokens[i:j])


# ---- rule: view-escape -------------------------------------------------------

_STORE_METHODS = {"push_back", "emplace_back", "insert", "assign", "emplace"}
_TEMP_STRING_MARKERS = (
    "std :: string (", "std :: to_string (", ". str ( )",
)


def check_view_escape(files: list[FileModel]) -> list[Finding]:
    # Member name -> decl texts, across every analyzed file: methods are
    # often defined in a .cpp while the member lives in the header, and
    # the trailing-underscore convention makes name collisions harmless.
    member_decls: dict[str, list[str]] = {}
    for fm in files:
        for cls in fm.classes:
            for m in cls.members:
                if m.name and not m.is_function and not m.is_type:
                    member_decls.setdefault(m.name, []).append(m.decl_text)
    out: list[Finding] = []
    for fm in files:
        for fn in fm.functions:
            out.extend(_view_escape_fn(fm, fn, member_decls))
    return out


def _member_is_view(member_decls: dict[str, list[str]], name: str) -> bool:
    """True when `name` resolves to a member whose declared type is a
    view (or container of views). Unresolvable names return False —
    assigning a view into a std::string member *copies*, so flagging
    every store would drown the rule in false positives; only stores
    into storage that actually aliases the view's bytes matter."""
    from check_model import VIEW_TYPE_MARKERS  # noqa: PLC0415
    return any(
        any(v in decl for v in VIEW_TYPE_MARKERS)
        for decl in member_decls.get(name, ())
    )


def _view_escape_fn(fm: FileModel, fn: FunctionModel,
                    member_decls: dict[str, list[str]]) -> list[Finding]:
    out: list[Finding] = []
    view_params = {p.name for p in fn.params if p.is_view and p.name}
    out_params = {p.name for p in fn.params
                  if p.is_mutable_ref and p.is_view and p.name}
    body = fn.body
    n = len(body)
    owning_strings: set[str] = set()
    for i, t in enumerate(body):
        # Track owning std::string locals (for return-dangle).
        if (
            t.text == "string" and i + 1 < n and body[i + 1].kind == IDENT
            and (i + 2 >= n or body[i + 2].text in ("=", ";", "{", "("))
        ):
            owning_strings.add(body[i + 1].text)
        # p stored into a member: `member_ = p ;` / `this->x = p ;`.
        if (
            t.text == "=" and i + 1 < n and body[i + 1].text in view_params
            and i + 2 < n and body[i + 2].text in (";", ",")
            and i >= 1 and body[i - 1].kind == IDENT
        ):
            target = body[i - 1].text
            is_member = (target.endswith("_") or (
                i >= 3 and _seq(body, i - 3, "this", "->")
            )) and _member_is_view(member_decls, target)
            if is_member:
                out.append(Finding(
                    "view-escape", fm.path, t.line,
                    f"view parameter '{body[i + 1].text}' stored into member "
                    f"'{target}', which outlives the call; copy into owned "
                    "storage or tie the lifetimes explicitly"))
            elif target in out_params:
                out.append(Finding(
                    "view-escape", fm.path, t.line,
                    f"view parameter '{body[i + 1].text}' escapes through "
                    f"out-parameter '{target}'; the caller's view may "
                    "outlive the bytes it points at"))
        # p stored into a member container: `c_.push_back(p)`.
        if (
            t.kind == IDENT and t.text in _STORE_METHODS
            and i >= 2 and body[i - 1].text == "."
            and body[i - 2].kind == IDENT
            and i + 2 < n and body[i + 1].text == "("
        ):
            target = body[i - 2].text
            if (target.endswith("_") and
                    _member_is_view(member_decls, target)) or \
                    target in out_params:
                arg = body[i + 2].text
                if arg in view_params:
                    out.append(Finding(
                        "view-escape", fm.path, t.line,
                        f"view parameter '{arg}' stored into container "
                        f"'{target}' via {t.text}(); the container outlives "
                        "the view's backing bytes"))
        # view local bound to a std::string temporary.
        if t.text in ("string_view", "RecordView") and i + 1 < n and \
                body[i + 1].kind == IDENT:
            j = _find_stmt_end(body, i)
            stmt = _stmt_text(body, i, j)
            if any(m in stmt for m in _TEMP_STRING_MARKERS):
                out.append(Finding(
                    "view-escape", fm.path, t.line,
                    f"view '{body[i + 1].text}' bound to a temporary "
                    "std::string that dies at the end of the statement"))
    out.extend(_refs_across_arena_growth(fm, fn))
    out.extend(_views_across_table_growth(fm, fn))
    # return-dangle: function returns a view built from owned locals.
    if "string_view" in fn.return_type:
        for i, t in enumerate(body):
            if t.text != "return":
                continue
            j = _find_stmt_end(body, i)
            stmt = _stmt_text(body, i + 1, j)
            if any(m in stmt for m in _TEMP_STRING_MARKERS):
                out.append(Finding(
                    "view-escape", fm.path, t.line,
                    "returning a string_view into a std::string temporary "
                    "created in the return statement"))
            elif j == i + 2 and body[i + 1].text in owning_strings:
                out.append(Finding(
                    "view-escape", fm.path, t.line,
                    f"returning a string_view into local std::string "
                    f"'{body[i + 1].text}', destroyed when the function "
                    "returns"))
    return out


def _refs_across_arena_growth(fm: FileModel,
                              fn: FunctionModel) -> list[Finding]:
    """Views into an arena held across its growth (DESIGN.md §8, §15).

    `RecordArena` keeps every frame in one offset-addressed buffer that
    append() may reallocate. RecordRefs are offsets and survive growth;
    a view read through `owner.frames()` — the FrameStore itself, or a
    key / value / frame view decoded from it — points into the old
    buffer. Binding such a view and touching it after another append()
    on the same arena dangles; keep the RecordRef and re-read the key
    instead. A reference bound to `owner.append(...)` is tracked the same
    way: an arena that returns a reference into its ref table
    invalidates it on the next append(). By-value RecordRef copies
    (`RecordRef r = arena.append(..)`) are clean."""
    body = fn.body
    texts = [t.text for t in body]
    n = len(body)
    out: list[Finding] = []
    i = 0
    while i < n:
        t = body[i]
        if not (t.text == "=" and i >= 1 and body[i - 1].kind == IDENT):
            i += 1
            continue
        # rhs must start `<owner tokens> . append (` (bound by reference)
        # or `<owner tokens> . frames (` — the owner expression is
        # everything up to the call paren (no-paren exprs only).
        paren = i + 1
        while paren < n and body[paren].text not in ("(", ";"):
            paren += 1
        if (paren >= n or body[paren].text != "(" or paren < i + 3
                or texts[paren - 2] != "." or body[i + 1].kind != IDENT):
            i += 1
            continue
        method = texts[paren - 1]
        by_ref = i >= 2 and body[i - 2].text == "&"
        if not (method == "frames" or (method == "append" and by_ref)):
            i += 1
            continue
        name = body[i - 1].text
        owner = texts[i + 1:paren - 2]
        growth = owner + [".", "append", "("]
        # The next textual append() on the same arena invalidates the
        # binding; any later use of it is a dangle.
        grown_at = -1
        for k in range(paren + 1, n - len(growth) + 1):
            if texts[k:k + len(growth)] == growth:
                grown_at = k
                break
        if grown_at < 0:
            i += 1
            continue
        for k in range(grown_at + len(growth), n):
            u = body[k]
            if (u.kind == IDENT and u.text == name
                    and not (k + 1 < n and texts[k + 1] == "=")
                    and not (k >= 1 and texts[k - 1] in (".", "->"))):
                if method == "frames":
                    what = (f"view '{name}' read through "
                            f"{' '.join(owner)}.frames()")
                    fix = ("append() may reallocate the frame buffer — "
                           "keep the RecordRef and re-read the view")
                else:
                    what = (f"reference '{name}' bound to "
                            f"{' '.join(owner)}.append()")
                    fix = ("append() may reallocate the ref table — copy "
                           "the RecordRef by value instead")
                out.append(Finding(
                    "view-escape", fm.path, u.line,
                    f"{what} is used after the arena grew again on line "
                    f"{body[grown_at].line}; {fix}"))
                break
        i += 1
    return out


_TABLE_GROWTH = ("push_back", "emplace_back")


def _owner_before(body: list[Token], end: int, start: int) -> list[str]:
    """The owner expression `a . b -> c` in body[start:end], or [] when
    the span holds anything else."""
    span = body[start:end]
    if not span or len(span) % 2 == 0:
        return []
    for k, u in enumerate(span):
        if (u.kind != IDENT) if k % 2 == 0 else (u.text not in (".", "->")):
            return []
    return [u.text for u in span]


def _views_across_table_growth(fm: FileModel,
                               fn: FunctionModel) -> list[Finding]:
    """Views into a vector's elements held across its growth (DESIGN.md
    §15).

    The hash-combine entry holds a short key's bytes itself, so a key
    view read from an entry points into the entry table, and the next
    push_back()/emplace_back() on that table may reallocate it. A
    string_view whose initializer reads `owner[i]`, directly or through a
    reference bound to it, is derived from `owner`; touching the view
    after `owner` grew dangles. Re-read the entry (by index) after the
    growth."""
    body = fn.body
    texts = [t.text for t in body]
    n = len(body)
    # Element references: `T & name = owner [ ... ] ;`.
    elements: dict[str, list[str]] = {}
    for i, t in enumerate(body):
        if not (t.text == "=" and i >= 2 and body[i - 1].kind == IDENT
                and texts[i - 2] == "&"):
            continue
        bracket = i + 1
        while bracket < n and texts[bracket] not in ("[", ";", "("):
            bracket += 1
        if bracket < n and texts[bracket] == "[":
            owner = _owner_before(body, bracket, i + 1)
            if owner:
                elements[body[i - 1].text] = owner
    out: list[Finding] = []
    for i, t in enumerate(body):
        if not (t.text == "string_view" and i + 2 < n
                and body[i + 1].kind == IDENT
                and texts[i + 2] in ("(", "{", "=")):
            continue
        name = body[i + 1].text
        end = _find_stmt_end(body, i)
        owner: list[str] = []
        for k in range(i + 3, end):
            if texts[k] in elements:
                owner = elements[texts[k]]
                break
            if texts[k] == "[":
                start = k - 1
                while start - 2 >= i + 3 and texts[start - 1] in (".", "->"):
                    start -= 2
                owner = _owner_before(body, k, start)
                if owner:
                    break
        if not owner:
            continue
        grown_at = -1
        for k in range(end, n - len(owner) - 1):
            if (texts[k:k + len(owner)] == owner
                    and texts[k + len(owner)] == "."
                    and texts[k + len(owner) + 1] in _TABLE_GROWTH):
                grown_at = k
                break
        if grown_at < 0:
            continue
        for k in range(grown_at, n):
            u = body[k]
            if (u.kind == IDENT and u.text == name
                    and not (k + 1 < n and texts[k + 1] == "=")
                    and not (k >= 1 and texts[k - 1] in (".", "->"))):
                out.append(Finding(
                    "view-escape", fm.path, u.line,
                    f"view '{name}' reads an element of "
                    f"{' '.join(owner)}, which grew on line "
                    f"{body[grown_at].line}; the growth may reallocate "
                    "the elements — re-read the element after it"))
                break
    return out


# ---- rule: arena-lifetime ----------------------------------------------------

_SOURCE_METHODS = {"records"}
_KILL_METHODS = {"clear", "reset"}


def check_arena_lifetime(files: list[FileModel]) -> list[Finding]:
    out: list[Finding] = []
    for fm in files:
        for fn in fm.functions:
            out.extend(_arena_lifetime_fn(fm, fn))
    return out


def _arena_lifetime_fn(fm: FileModel, fn: FunctionModel) -> list[Finding]:
    body = fn.body
    n = len(body)
    derived: dict[str, str] = {}   # view var -> owner var
    spills: dict[str, str] = {}    # spill var -> buffer var
    killed: dict[str, int] = {}    # var -> kill line
    out: list[Finding] = []
    reported: set[str] = set()
    i = 0
    while i < n:
        t = body[i]
        # var = owner.records()
        if (
            t.text == "=" and i >= 1 and body[i - 1].kind == IDENT
            and i + 3 < n and body[i + 1].kind == IDENT
            and body[i + 2].text == "." and body[i + 3].kind == IDENT
            and body[i + 3].text in _SOURCE_METHODS
        ):
            derived[body[i - 1].text] = body[i + 1].text
            killed.pop(body[i - 1].text, None)
        # var = index_frames(owner, ...)
        elif (
            t.text == "=" and i >= 1 and body[i - 1].kind == IDENT
            and i + 2 < n and body[i + 1].text == "index_frames"
            and body[i + 2].text == "("
            and i + 3 < n and body[i + 3].kind == IDENT
        ):
            derived[body[i - 1].text] = body[i + 3].text
            killed.pop(body[i - 1].text, None)
        # var = buffer.take()
        elif (
            t.text == "=" and i >= 1 and body[i - 1].kind == IDENT
            and i + 3 < n and body[i + 1].kind == IDENT
            and body[i + 2].text == "." and body[i + 3].text == "take"
        ):
            spills[body[i - 1].text] = body[i + 1].text
            killed.pop(body[i - 1].text, None)
        # owner.clear() / owner.reset(): kills everything derived from it.
        elif (
            t.text == "." and i >= 1 and body[i - 1].kind == IDENT
            and i + 1 < n and body[i + 1].text in _KILL_METHODS
            and i + 2 < n and body[i + 2].text == "("
        ):
            owner = body[i - 1].text
            for var, src in derived.items():
                if src == owner and var not in killed:
                    killed[var] = t.line
        # buffer.release(spill, ...) / buffer.release(*spill, ...).
        elif (
            t.text == "." and i >= 1 and body[i - 1].kind == IDENT
            and i + 1 < n and body[i + 1].text == "release"
            and i + 2 < n and body[i + 2].text == "("
        ):
            k = i + 3
            if k < n and body[k].text == "*":
                k += 1
            if k < n and body[k].kind == IDENT and body[k].text in spills:
                killed.setdefault(body[k].text, t.line)
                i = k  # don't treat the release argument as a use
        elif (
            t.kind == IDENT and t.text in killed
            # Re-assignment is a rebirth, not a use; the '=' branch
            # above resets the variable's lifetime next iteration.
            and not (i + 1 < n and body[i + 1].text == "=")
        ):
            # A released Spill was taken *by value* (take() returns
            # std::optional<Spill>), so its POD fields stay valid after
            # release(); only `records` holds RecordRefs into the now
            # re-usable ring. Vars derived from an arena are RecordRef
            # vectors / cursors, so any use at all dangles.
            if t.text in spills and not (
                i + 2 < n and body[i + 1].text in (".", "->")
                and body[i + 2].text == "records"
            ):
                i += 1
                continue
            key = f"{fn.name}:{t.text}"
            if key not in reported:
                reported.add(key)
                what = ("backing ring region was released"
                        if t.text in spills else
                        f"storage owned by '{derived.get(t.text, '?')}' "
                        "was reset")
                out.append(Finding(
                    "arena-lifetime", fm.path, t.line,
                    f"'{t.text}' used after its {what} on line "
                    f"{killed[t.text]}; the refs/views now dangle"))
        i += 1
    return out


# ---- rule: lock-coverage -----------------------------------------------------

def check_lock_coverage(files: list[FileModel]) -> list[Finding]:
    out: list[Finding] = []
    for fm in files:
        for cls in fm.classes:
            if not cls.has_mutex:
                continue
            for m in cls.members:
                if (m.is_function or m.is_type or m.is_static or m.is_const
                        or m.is_guarded or m.is_atomic or m.is_sync):
                    continue
                if not m.name:
                    continue
                out.append(Finding(
                    "lock-coverage", fm.path, m.line,
                    f"mutable member '{cls.name}::{m.name}' in a "
                    "mutex-owning class has no TEXTMR_GUARDED_BY / "
                    "TEXTMR_PT_GUARDED_BY annotation (unannotated members "
                    "are silently unchecked by -Wthread-safety); annotate "
                    "it or add a check:allow(lock-coverage) comment "
                    "explaining the synchronization"))
    return out


# ---- rule: switch-exhaustiveness ---------------------------------------------

def check_switch_exhaustiveness(files: list[FileModel]) -> list[Finding]:
    # Enum definitions can live in a different file than the switch.
    enums: dict[str, list[str]] = {}
    for fm in files:
        for en in fm.enums:
            if en.name in EXHAUSTIVE_ENUMS:
                enums[en.name] = en.enumerators
    # Fallback so a partial file set (corpus runs) still checks switches
    # against the snapshot below; the live definition wins when parsed.
    for name, snapshot in _ENUM_SNAPSHOT.items():
        enums.setdefault(name, snapshot)
    out: list[Finding] = []
    for fm in files:
        for sw in fm.switches:
            hits = [c for c in sw.cases if c.enum_name in enums]
            if not hits:
                continue
            enum_name = hits[0].enum_name
            sentinel = EXHAUSTIVE_ENUMS.get(enum_name, set())
            expected = [e for e in enums[enum_name] if e not in sentinel]
            covered = {c.enumerator for c in sw.cases
                       if c.enum_name == enum_name}
            missing = [e for e in expected if e not in covered]
            if missing:
                out.append(Finding(
                    "switch-exhaustiveness", fm.path, sw.line,
                    f"switch over {enum_name} does not handle "
                    f"{', '.join(enum_name + '::' + m for m in missing)}; "
                    "every dispatch site must decide explicitly what a new "
                    "enumerator means"))
            if sw.default_line:
                out.append(Finding(
                    "switch-exhaustiveness", fm.path, sw.default_line,
                    f"'default:' in a switch over {enum_name} swallows "
                    "future enumerators — list the remaining cases "
                    "explicitly so adding one forces a decision here"))
    return out


# Snapshot of the registered enums as of this PR, used only when the
# analyzed file set does not include the defining header (e.g. corpus
# self-tests). tools/lint.py already gates the live tables elsewhere.
_ENUM_SNAPSHOT: dict[str, list[str]] = {
    "Op": [
        "kMapRead", "kMapUser", "kEmit", "kProfile", "kFreqTable", "kSort",
        "kCombine", "kSpillWrite", "kMerge", "kMergeCombine", "kShuffle",
        "kReduceMerge", "kReduceUser", "kOutputWrite", "kMapIdle",
        "kSupportIdle", "kNumOps",
    ],
    "MsgType": [
        "kRunMap", "kRunReduce", "kShutdown", "kClockProbe", "kWelcome",
        "kHeartbeat", "kMapDone", "kReduceDone", "kTaskFailed", "kClockSync",
        "kTraceChunk", "kHello", "kShuffleFetch", "kShuffleData",
        "kShuffleError",
    ],
    "ActionKind": ["kThrow", "kShortWrite", "kCorrupt", "kDelay"],
}


# ---- rule: decoder-bounds ----------------------------------------------------

_GUARD_METHODS = {"size", "length", "empty", "remaining"}
_GUARD_CALLS = {"ensure", "expect_done", "require", "check_size",
                "bounds_check", "TEXTMR_CHECK"}


def check_decoder_bounds(files: list[FileModel]) -> list[Finding]:
    out: list[Finding] = []
    for fm in files:
        for fn in fm.functions:
            if not _DECODER_FN_RE.match(fn.name):
                continue
            out.extend(_decoder_bounds_fn(fm, fn))
    return out


def _decoder_bounds_fn(fm: FileModel, fn: FunctionModel) -> list[Finding]:
    span_params = {
        p.name for p in fn.params
        if p.name and ("string_view" in p.type_text
                       or "span" in p.type_text
                       or ("char" in p.type_text and "*" in p.type_text)
                       # Offset-addressed byte heaps (the hash-combine
                       # shard table's value chains, DESIGN.md §15):
                       # load_* readers over a vector<char> heap must
                       # guard the offset like any other decoder.
                       or ("vector" in p.type_text
                           and "char" in p.type_text))
    }
    if not span_params:
        return []
    body = fn.body
    n = len(body)
    guard_seen = False
    out: list[Finding] = []
    for i, t in enumerate(body):
        if (
            t.text == "." and i + 2 < n and body[i + 1].kind == IDENT
            and body[i + 1].text in _GUARD_METHODS
            and body[i + 2].text == "("
        ):
            guard_seen = True
            continue
        if t.kind == IDENT and t.text in _GUARD_CALLS and \
                i + 1 < n and body[i + 1].text == "(":
            guard_seen = True
            continue
        if guard_seen:
            continue
        # Unguarded indexed read: `p[...]`.
        if (
            t.kind == IDENT and t.text in span_params
            and i + 1 < n and body[i + 1].text == "["
        ):
            out.append(Finding(
                "decoder-bounds", fm.path, t.line,
                f"indexed read '{t.text}[...]' in {fn.name}() before any "
                "size guard; a truncated input reads out of bounds"))
        # Unguarded memcpy touching a span param.
        if t.text == "memcpy" and i + 1 < n and body[i + 1].text == "(":
            j = _find_stmt_end(body, i)
            args = {x.text for x in body[i + 1 : j] if x.kind == IDENT}
            if args & span_params:
                out.append(Finding(
                    "decoder-bounds", fm.path, t.line,
                    f"memcpy from '{', '.join(sorted(args & span_params))}'"
                    f" in {fn.name}() before any size guard; a short "
                    "buffer overreads"))
    return out


# ---- registry ----------------------------------------------------------------

RULES = {
    "view-escape": (
        check_view_escape,
        "a view (string_view / RecordRef / RecordView) bound to "
        "short-lived bytes must not be stored somewhere that outlives "
        "them (member, member container, out-param, return), and a "
        "view read through an arena's frames() (or a reference to its "
        "append() result) must not be held across arena growth",
    ),
    "arena-lifetime": (
        check_arena_lifetime,
        "no use of RecordRefs / index_frames results after the owning "
        "arena is cleared or the spill is released back to its ring",
    ),
    "lock-coverage": (
        check_lock_coverage,
        "every mutable member of a textmr::Mutex-owning class is "
        "GUARDED_BY-annotated, atomic, const, or carries an explicit "
        "exemption comment",
    ),
    "switch-exhaustiveness": (
        check_switch_exhaustiveness,
        "switches over mr::Op, cluster::MsgType and failpoint::ActionKind "
        "handle every enumerator and never hide behind 'default:'",
    ),
    "decoder-bounds": (
        check_decoder_bounds,
        "decode_*/parse_*/load_* functions over string_view / byte "
        "spans / vector<char> heaps bounds-check before indexed or "
        "memcpy reads",
    ),
}


def run_rules(files: list[FileModel],
              rules: list[str] | None = None) -> list[Finding]:
    selected = rules or sorted(RULES)
    findings: list[Finding] = []
    for name in selected:
        fn, _ = RULES[name]
        findings.extend(fn(files))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def split_suppressed(files: list[FileModel], findings: list[Finding]):
    """Partitions findings into (active, suppressed) using the
    check:allow(rule) comment markers."""
    by_path = {fm.path: fm for fm in files}
    active, suppressed = [], []
    for f in findings:
        fm = by_path.get(f.path)
        if fm is not None and f.rule in fm.allows_at(f.line):
            suppressed.append(f)
        else:
            active.append(f)
    return active, suppressed
