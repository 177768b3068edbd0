"""The relation table driving web reduction.

Every reduction the engine performs is one of finitely many local face
rewrites.  The table lists, for each reducible internal face shape (a cyclic
word of side types), a replacement linear combination of smaller webs glued
into the face's external legs.  The two closed-loop values and the three-term
crossing expansion live here as well.

The table is *data*: it is generated once by ``tools/derive_rules.py`` from
the representation theory of quantum sp(4), frozen into
:mod:`c2spider.rules_data`, and printable for audit via ``c2spider web
rules``.  Everything downstream (projector coefficients, theta networks,
modular data cross-checks) validates against independent oracles, so a wrong
transcription cannot survive the test suite.

Mini-web encoding for rule right-hand sides: ``verts`` is a tuple of
``(kind, leg_types, extra)`` and ``edges`` a tuple of
``(end_a, end_b, type)`` where an end is ``("x", j)`` for external port j
(ports sit at face corners, port j between sides j-1 and j) or
``("v", vi, slot)`` for leg ``slot`` of new vertex ``vi``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .ring import RationalFunction


def _ext_type(before: str, after: str) -> str:
    """Type of the third leg at a trivalent corner between two face sides."""
    pair = {before, after}
    if pair == {"s"}:
        return "d"
    if pair == {"s", "d"}:
        return "s"
    raise ValueError(f"impossible corner between {before!r} and {after!r}")


@dataclass(frozen=True)
class FaceRule:
    word: tuple          # side types, as traced
    rhs: tuple           # ((RationalFunction, (verts, edges)), ...)


class RuleTable:
    """Loop values, face rules and the crossing expansion.

    Every right-hand term of a face rule must have fewer vertices than the
    face has sides, so that each rewrite lowers the vertex count and
    reduction ends; a table that breaks this is refused with ValueError.
    """

    def __init__(self, loop, face_rules, crossing=None, framing=None, meta=None):
        self.loop = {t: RationalFunction.coerce(v) for t, v in loop.items()}
        self.rules = list(face_rules)
        self.by_len = {}
        for r in self.rules:
            if any(len(verts) >= len(r.word) for _, (verts, _) in r.rhs):
                raise ValueError(f"face rule {''.join(r.word)} has a right-hand "
                                 f"term with no fewer vertices than sides")
            self.by_len.setdefault(len(r.word), []).append(r)
        self.max_face = max(self.by_len) if self.by_len else 0
        # crossing = (A, B, C): identity-smoothing, turnback-smoothing and
        # double-bridge coefficients of the positive crossing
        self.crossing = None if crossing is None else tuple(
            RationalFunction.coerce(c) for c in crossing)
        self.framing = None if framing is None else RationalFunction.coerce(framing)
        self.meta = dict(meta or {})
        self._hash = None

    # -- serialization ------------------------------------------------------

    def to_json(self):
        def rf(x):
            return x.to_json()

        rules = []
        for r in self.rules:
            rules.append({
                "word": list(r.word),
                "rhs": [{"coeff": rf(c),
                         "verts": [[k, list(t), list(e)] for k, t, e in verts],
                         "edges": [[list(a), list(b), ty] for a, b, ty in edges]}
                        for c, (verts, edges) in r.rhs],
            })
        return {
            "schema": "c2spider/rules/1",
            "loop": {t: rf(v) for t, v in sorted(self.loop.items())},
            "faces": rules,
            "crossing": None if self.crossing is None else [rf(c) for c in self.crossing],
            "framing": None if self.framing is None else rf(self.framing),
            "meta": self.meta,
        }

    @staticmethod
    def from_json(data) -> "RuleTable":
        def rf(x):
            return RationalFunction.from_json(x)

        rules = []
        for rec in data["faces"]:
            rhs = []
            for term in rec["rhs"]:
                verts = tuple((k, tuple(t), tuple(e)) for k, t, e in term["verts"])
                edges = tuple((tuple(a), tuple(b), ty) for a, b, ty in term["edges"])
                rhs.append((rf(term["coeff"]), (verts, edges)))
            rules.append(FaceRule(tuple(rec["word"]), tuple(rhs)))
        return RuleTable(
            loop={t: rf(v) for t, v in data["loop"].items()},
            face_rules=rules,
            crossing=None if data.get("crossing") is None else [rf(c) for c in data["crossing"]],
            framing=None if data.get("framing") is None else rf(data["framing"]),
            meta=data.get("meta"),
        )

    def table_hash(self) -> str:
        if self._hash is None:
            blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
            self._hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._hash

    def pretty(self) -> str:
        lines = ["relation table (audit view)", ""]
        for t in sorted(self.loop):
            name = "single" if t == "s" else "double"
            lines.append(f"closed {name} loop  ->  {self.loop[t]!r}")
        for r in sorted(self.rules, key=lambda r: (len(r.word), r.word)):
            lines.append("")
            lines.append(f"face {''.join(r.word)}  ({len(r.rhs)} terms)")
            for c, (verts, edges) in r.rhs:
                wiring = ", ".join(
                    f"{_end_str(a)}-{_end_str(b)}:{ty}" for a, b, ty in edges)
                vs = "; ".join(f"v{vi}={k}{''.join(t)}" for vi, (k, t, _) in enumerate(verts))
                lines.append(f"  + ({c!r}) * [{vs or 'wires'} | {wiring}]")
        if self.crossing is not None:
            a, b, c = self.crossing
            lines.append("")
            lines.append("crossing (over strand joins clockwise neighbours in the first term):")
            lines.append(f"  identity smoothing   A = {a!r}")
            lines.append(f"  turnback smoothing   B = {b!r}")
            lines.append(f"  double-edge bridge   C = {c!r}")
            lines.append(f"  positive curl factor f = {self.framing!r}")
        return "\n".join(lines)


def _end_str(end):
    if end[0] == "x":
        return f"x{end[1]}"
    return f"v{end[1]}.{end[2]}"


_DEFAULT = None


def default_table() -> RuleTable:
    global _DEFAULT
    if _DEFAULT is None:
        from . import rules_data
        _DEFAULT = RuleTable.from_json(rules_data.RULES_JSON)
    return _DEFAULT
