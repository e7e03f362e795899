"""An evaluator written from the paper's definitions, apart from the engine.

The benchmark checks every distinct answer the service returns against
this module.  It shares no code with ``repro``: it reads the directory from
its LDIF text with its own small parser, keeps it as a plain dict of
entries, matches the handful of filter forms the benchmark's generator
writes, and evaluates queries by the definitions of the paper (Definitions
4.1, 5.1, 6.1, 6.2 and 7.1).  Where the definitional evaluator in
``repro.query.semantics`` scans witness sets quadratically, this one walks
parent links, so a 20k-entry directory is checked in seconds.

Queries are nested tuples (see :func:`render`), so the generator, the
oracle and the query text all come from one description.

Only what the benchmark needs is supported: filters ``a=v`` (string),
``a<n`` / ``a>=n`` (int attributes), ``a=*``, ``a=*x*`` style substrings and
``objectClass=*``; boolean ``& | -``; the six hierarchical operators with an
optional ``count($2) >= k``; ``(g Q max($1.a) > k)``; and ``vd`` / ``dv``
with an optional ``count($2) >= k``.
"""

from __future__ import annotations

import base64
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

INT_ATTRIBUTES = frozenset({"weight", "level"})


# -- distinguished names ------------------------------------------------------


def norm_dn(text: str) -> str:
    """One spelling per dn: RDNs joined by ``", "``, leaf first."""
    parts = [part.strip() for part in text.split(",")]
    return ", ".join(part for part in parts if part)


def parent_of(dn: str) -> str:
    """The parent dn (``""`` is the null dn above the forest roots)."""
    cut = dn.find(", ")
    return "" if cut < 0 else dn[cut + 2:]


def reverse_key(dn: str) -> Tuple[str, ...]:
    """The paper's list order: RDNs compared root first."""
    return tuple(reversed(dn.split(", "))) if dn else ()


# -- the entry model ----------------------------------------------------------


def parse_ldif(text: str) -> Dict[str, Dict[str, List[str]]]:
    """dn -> {attribute: [values]} with ``objectClass`` among the attributes."""
    entries: Dict[str, Dict[str, List[str]]] = {}
    for block in re.split(r"\n\s*\n", text):
        lines: List[str] = []
        for raw in block.splitlines():
            if raw.startswith(" ") and lines:
                lines[-1] += raw[1:]
            elif raw and not raw.startswith("#"):
                lines.append(raw)
        if not lines:
            continue
        dn = None
        attrs: Dict[str, List[str]] = {}
        for line in lines:
            name, _, rest = line.partition(":")
            if rest.startswith(":"):
                value = base64.b64decode(rest[1:].strip()).decode("utf-8")
            else:
                value = rest.strip()
            if name.lower() == "dn":
                dn = norm_dn(value)
            else:
                attrs.setdefault(name, []).append(value)
        if dn is None:
            raise ValueError("LDIF record without a dn")
        entries[dn] = attrs
    return entries


# -- filters ------------------------------------------------------------------
#
# ("eq", a, v)  ("lt"|"ge", a, n)  ("present", a)  ("sub", a, pattern)  ("all",)


def filter_text(filt: tuple) -> str:
    kind = filt[0]
    if kind == "eq":
        return "%s=%s" % (filt[1], filt[2])
    if kind == "lt":
        return "%s<%d" % (filt[1], filt[2])
    if kind == "ge":
        return "%s>=%d" % (filt[1], filt[2])
    if kind == "present":
        return "%s=*" % filt[1]
    if kind == "sub":
        return "%s=%s" % (filt[1], filt[2])
    if kind == "all":
        return "objectClass=*"
    raise ValueError("unknown filter %r" % (filt,))


def value_matches(filt: tuple, value: str) -> bool:
    """Does one value satisfy the (non-``all``, non-presence) filter?"""
    kind = filt[0]
    if kind == "eq":
        return value == filt[2]
    if kind == "sub":
        pieces = filt[2].split("*")
        return re.fullmatch(".*".join(re.escape(p) for p in pieces), value,
                            re.S) is not None
    if kind == "lt":
        return int(value) < filt[2]
    if kind == "ge":
        return int(value) >= filt[2]
    raise ValueError("unknown filter %r" % (filt,))


# -- queries ------------------------------------------------------------------
#
# ("atom", base, scope, filter)
# ("&" | "|" | "-", left, right)
# ("hier", op, first, second, third or None, k or None)   k: count($2) >= k
# ("g", operand, attribute, k)                             max($1.a) > k
# ("ref", op, first, second, k or None)                    attribute ref


def render(query: tuple) -> str:
    """The query in the paper's concrete syntax."""
    kind = query[0]
    if kind == "atom":
        _, base, scope, filt = query
        return "(%s ? %s ? %s)" % (base, scope, filter_text(filt))
    if kind in ("&", "|", "-"):
        return "(%s %s %s)" % (kind, render(query[1]), render(query[2]))
    if kind == "hier":
        _, op, first, second, third, k = query
        parts = [op, render(first), render(second)]
        if third is not None:
            parts.append(render(third))
        if k is not None:
            parts.append("count($2) >= %d" % k)
        return "(%s)" % " ".join(parts)
    if kind == "g":
        _, operand, attribute, k = query
        return "(g %s max($1.%s) > %d)" % (render(operand), attribute, k)
    if kind == "ref":
        _, op, first, second, k = query
        parts = [op, render(first), render(second), "ref"]
        if k is not None:
            parts.append("count($2) >= %d" % k)
        return "(%s)" % " ".join(parts)
    raise ValueError("unknown query %r" % (query,))


class Directory:
    """A plain dict model of the directory plus the definitional evaluator.

    Mutations (:meth:`put`, :meth:`remove`) keep the parent index and the
    per-filter match sets current, so a changing directory is checked
    without rescanning it.
    """

    def __init__(self, entries: Dict[str, Dict[str, List[str]]]):
        self.entries: Dict[str, Dict[str, List[str]]] = {}
        self.children: Dict[str, Set[str]] = {"": set()}
        #: attribute -> value -> dns holding it
        self._index: Dict[str, Dict[str, Set[str]]] = {}
        for dn in sorted(entries, key=lambda d: len(reverse_key(d))):
            self.put(dn, entries[dn])

    @classmethod
    def from_ldif(cls, text: str) -> "Directory":
        return cls(parse_ldif(text))

    # -- mutations ------------------------------------------------------------

    def put(self, dn: str, attrs: Dict[str, List[str]]) -> None:
        """Add or replace the entry at ``dn`` (its parent must exist)."""
        parent = parent_of(dn)
        if parent not in self.children:
            raise KeyError("parent of %s is missing" % dn)
        if dn in self.entries:
            self._unindex(dn)
        self.entries[dn] = {name: list(values) for name, values in attrs.items()}
        self.children[parent].add(dn)
        self.children.setdefault(dn, set())
        for name, values in self.entries[dn].items():
            by_value = self._index.setdefault(name, {})
            for value in values:
                by_value.setdefault(value, set()).add(dn)

    def remove(self, dn: str) -> None:
        """Delete a leaf."""
        if self.children.get(dn):
            raise KeyError("%s has children" % dn)
        self._unindex(dn)
        del self.entries[dn]
        del self.children[dn]
        self.children[parent_of(dn)].discard(dn)

    def _unindex(self, dn: str) -> None:
        for name, values in self.entries[dn].items():
            for value in values:
                self._index[name][value].discard(dn)

    # -- evaluation -----------------------------------------------------------

    def answer(self, query: tuple) -> List[str]:
        """The query's result: dns in reversed-dn order."""
        return sorted(self.evaluate(query), key=reverse_key)

    def matching(self, filt: tuple) -> Set[str]:
        """Entries with at least one value satisfying the filter."""
        if filt[0] == "all":
            return set(self.entries)
        by_value = self._index.get(filt[1], {})
        found: Set[str] = set()
        for value, dns in by_value.items():
            if filt[0] == "present" or value_matches(filt, value):
                found |= dns
        return found

    def subtree(self, base: str) -> List[str]:
        """``base`` and all its descendants (the null dn: every entry)."""
        out = [base] if base else []
        stack = [base]
        while stack:
            kids = self.children.get(stack.pop(), ())
            out.extend(kids)
            stack.extend(kids)
        return out

    def ancestors(self, dn: str) -> Iterable[str]:
        """Proper ancestors, nearest first (entries only)."""
        node = parent_of(dn)
        while node:
            yield node
            node = parent_of(node)

    def evaluate(self, query: tuple) -> Set[str]:
        kind = query[0]
        if kind == "atom":
            return self._atomic(query)
        if kind in ("&", "|", "-"):
            left, right = self.evaluate(query[1]), self.evaluate(query[2])
            if kind == "&":
                return left & right
            if kind == "|":
                return left | right
            return left - right
        if kind == "hier":
            return self._hierarchy(query)
        if kind == "g":
            _, operand, attribute, k = query
            return {
                dn for dn in self.evaluate(operand)
                if any(int(v) > k for v in self.entries[dn].get(attribute, ()))
            }
        if kind == "ref":
            return self._embedded_ref(query)
        raise ValueError("unknown query %r" % (query,))

    def _atomic(self, query: tuple) -> Set[str]:
        """Definition 4.1: the base itself is in scope for one and sub."""
        _, base, scope, filt = query
        matched = self.matching(filt)
        if base and base not in self.entries:
            return set()
        if scope == "base":
            region = [base] if base else []
        elif scope == "one":
            region = ([base] if base else []) + list(self.children[base])
        elif not base:
            return set(matched)
        else:
            region = self.subtree(base)
        return {dn for dn in region if dn in matched}

    def _hierarchy(self, query: tuple) -> Set[str]:
        """Definitions 5.1 and 6.2: witness counts by walking parent links."""
        _, op, first_q, second_q, third_q, k = query
        first = self.evaluate(first_q)
        second = self.evaluate(second_q)
        third = self.evaluate(third_q) if third_q is not None else set()
        counts: Dict[str, int] = {}
        if op == "p":
            for dn in first:
                if parent_of(dn) in second:
                    counts[dn] = 1
        elif op == "c":
            for dn in second:
                parent = parent_of(dn)
                if parent in first:
                    counts[parent] = counts.get(parent, 0) + 1
        elif op in ("a", "ac"):
            for dn in first:
                for node in self.ancestors(dn):
                    if node in second:
                        counts[dn] = counts.get(dn, 0) + 1
                    if op == "ac" and node in third:
                        break
        elif op in ("d", "dc") and 4 * len(first) < len(second):
            # Few candidates: walk down from each, stopping below blockers.
            for dn in first:
                stack = list(self.children[dn])
                while stack:
                    node = stack.pop()
                    if node in second:
                        counts[dn] = counts.get(dn, 0) + 1
                    if not (op == "dc" and node in third):
                        stack.extend(self.children[node])
        elif op in ("d", "dc"):
            for dn in second:
                for node in self.ancestors(dn):
                    if node in first:
                        counts[node] = counts.get(node, 0) + 1
                    if op == "dc" and node in third:
                        break
        else:
            raise ValueError("unknown hierarchical operator %r" % op)
        need = 1 if k is None else k
        return {dn for dn, count in counts.items() if count >= need}

    def _embedded_ref(self, query: tuple) -> Set[str]:
        """Definition 7.1 over attribute ``ref``."""
        _, op, first_q, second_q, k = query
        first = self.evaluate(first_q)
        second = self.evaluate(second_q)
        witnesses: Dict[str, Set[str]] = {}
        if op == "vd":
            for dn in first:
                for value in self.entries[dn].get("ref", ()):
                    target = norm_dn(value)
                    if target in second:
                        witnesses.setdefault(dn, set()).add(target)
        else:
            for dn in second:
                for value in self.entries[dn].get("ref", ()):
                    target = norm_dn(value)
                    if target in first:
                        witnesses.setdefault(target, set()).add(dn)
        need = 1 if k is None else k
        return {dn for dn, found in witnesses.items() if len(found) >= need}


# -- access control -----------------------------------------------------------


class Rules:
    """Subtree read rules: the most specific matching rule decides (deeper
    scope first, then a named subject over ``*``, then base-only over
    subtree, then the earlier rule); no match means ``default``."""

    def __init__(self, rules: Sequence[Tuple[str, str, bool, bool]],
                 default: bool = False):
        #: (subject, scope dn, allow, base only)
        self.rules = list(rules)
        self.default = default

    def readable(self, subject: Optional[str], dn: str) -> bool:
        best = None
        for position, (who, scope, allow, base_only) in enumerate(self.rules):
            if who != "*" and who != subject:
                continue
            if base_only:
                if dn != scope:
                    continue
            elif scope and dn != scope and not dn.endswith(", " + scope):
                continue
            depth = len(scope.split(", ")) if scope else 0
            rank = (depth * 4 + (2 if who != "*" else 0) + (1 if base_only else 0),
                    -position)
            if best is None or rank > best[0]:
                best = (rank, allow)
        return self.default if best is None else best[1]


# -- answer checks ------------------------------------------------------------


def check_answer(got: Sequence[str], expected: Sequence[str],
                 rules: Optional[Rules] = None,
                 subject: Optional[str] = None) -> List[str]:
    """Problems with one answer (an empty list means it is correct).

    ``got`` is the service's dn list, ``expected`` the oracle's pre-ACL
    answer in order.  Three properties are checked separately, so a
    corrupted answer names what broke: reversed-dn order without
    duplicates, no entry unreadable by ``subject``, and equality with the
    oracle answer restricted to what ``subject`` may read.
    """
    problems = []
    keys = [reverse_key(dn) for dn in got]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("not in strictly increasing reversed-dn order")
    if rules is not None:
        hidden = [dn for dn in got if not rules.readable(subject, dn)]
        if hidden:
            problems.append("%d entries unreadable by the subject, e.g. %s"
                            % (len(hidden), hidden[0]))
        expected = [dn for dn in expected if rules.readable(subject, dn)]
    if list(got) != list(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append("differs from the oracle: %d missing %s, %d extra %s"
                        % (len(missing), missing[:2], len(extra), extra[:2]))
    return problems


def entry_pairs(attrs: Dict[str, List[str]]) -> Set[Tuple[str, str]]:
    """An entry's content as comparable (attribute, value) pairs."""
    pairs = set()
    for name, values in attrs.items():
        for value in values:
            if name == "ref":
                value = norm_dn(value)
            pairs.add((name, value))
    return pairs
