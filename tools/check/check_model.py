"""Shared IR for textmr-check (tools/check).

Both frontends — the libclang one (precise types, driven by
compile_commands.json) and the pure-Python token frontend (always
available) — lower source files into these models; every rule in
check_rules.py runs against the IR only, so the checks themselves are
exercised by the self-test corpus regardless of which frontend built
the models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from check_lexer import Token

ALLOW_RE = re.compile(r"check:allow\(([a-z0-9_-]+)\)")
EXPECT_RE = re.compile(r"check:expect\(([a-z0-9_-]+)\)")

# Thread-safety annotation macros whose presence marks a member as
# covered by the analysis (tools/lint.py bans raw std::mutex, so the
# TEXTMR_* spellings are the only ones in tree; the bare names appear in
# the corpus stubs).
GUARD_MACROS = {
    "TEXTMR_GUARDED_BY", "TEXTMR_PT_GUARDED_BY",
    "GUARDED_BY", "PT_GUARDED_BY",
}

# Types that are non-owning views into someone else's storage.
VIEW_TYPE_MARKERS = ("string_view", "RecordRef", "RecordView")

# Mutex-like capability types (a member of one of these makes the class
# subject to the lock-coverage rule; the members themselves are exempt).
# Lowercase spellings cover the sanctioned raw-std uses (the textmr::Mutex
# implementation itself; tools/lint.py bans them everywhere else).
SYNC_TYPE_MARKERS = ("Mutex", "CondVar", "MutexLock", "once_flag",
                     "mutex", "condition_variable")


@dataclass
class Param:
    name: str
    type_text: str  # normalized, space-separated type tokens

    @property
    def is_view(self) -> bool:
        return (
            any(m in self.type_text for m in VIEW_TYPE_MARKERS)
            and "*" not in self.type_text
            and "vector" not in self.type_text
        )

    @property
    def is_mutable_ref(self) -> bool:
        return "&" in self.type_text and "const" not in self.type_text


@dataclass
class FunctionModel:
    name: str
    line: int
    params: list[Param]
    body: list[Token]        # tokens between (and excluding) the braces
    return_type: str = ""    # best effort; "" when unknown
    class_name: str = ""     # enclosing class when known


@dataclass
class MemberModel:
    name: str
    line: int
    decl_text: str
    is_static: bool = False
    is_const: bool = False
    is_reference: bool = False
    is_atomic: bool = False
    is_guarded: bool = False
    is_sync: bool = False
    is_function: bool = False
    is_type: bool = False


@dataclass
class ClassModel:
    name: str
    line: int
    members: list[MemberModel] = field(default_factory=list)

    @property
    def has_mutex(self) -> bool:
        return any(
            m.is_sync
            and ("Mutex" in m.decl_text or "mutex" in m.decl_text)
            and "MutexLock" not in m.decl_text
            for m in self.members
        )


@dataclass
class EnumModel:
    name: str            # unqualified (Op, MsgType, ActionKind, ...)
    line: int
    enumerators: list[str] = field(default_factory=list)


@dataclass
class CaseLabel:
    enum_name: str   # unqualified enum the label names, "" if unscoped
    enumerator: str
    line: int


@dataclass
class SwitchModel:
    line: int
    subject_text: str
    cases: list[CaseLabel] = field(default_factory=list)
    default_line: int = 0  # 0 = no default label
    function_name: str = ""


@dataclass
class FileModel:
    path: str  # repo-relative, forward slashes
    tokens: list[Token] = field(default_factory=list)
    comments: dict[int, str] = field(default_factory=dict)
    functions: list[FunctionModel] = field(default_factory=list)
    classes: list[ClassModel] = field(default_factory=list)
    enums: list[EnumModel] = field(default_factory=list)
    switches: list[SwitchModel] = field(default_factory=list)

    def allows_at(self, line: int) -> set[str]:
        """Rules suppressed at `line` via check:allow on the same line or
        anywhere in the contiguous comment block directly above it."""
        rules: set[str] = set(ALLOW_RE.findall(self.comments.get(line, "")))
        ln = line - 1
        while ln in self.comments:
            rules.update(ALLOW_RE.findall(self.comments[ln]))
            ln -= 1
        return rules

    def expects(self) -> list[tuple[str, int]]:
        """Corpus expectation markers: (rule, line) pairs."""
        out = []
        for ln, text in sorted(self.comments.items()):
            for rule in EXPECT_RE.findall(text):
                out.append((rule, ln))
        return out


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
