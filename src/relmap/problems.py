"""Mapping problems and bijective mappings between their term lists."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DataError
from .terms import Term

POS_TAGS = frozenset({"NN", "NNS", "VB", "VBZ", "VBG", "VBD", "JJ"})


@dataclass(frozen=True)
class MappingProblem:
    """Two equal-size term lists plus optional annotations.

    `pos_tags`, `intended` and `agreement` are keyed by normalized term
    text. A term may appear on both sides (e.g. attracts -> attracts),
    but never twice on the same side.
    """

    id: str
    source: tuple[Term, ...]
    target: tuple[Term, ...]
    pos_tags: dict[str, str] = field(default_factory=dict)
    intended: dict[str, str] = field(default_factory=dict)
    agreement: dict[str, float] = field(default_factory=dict)
    mnemonic: str = ""

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise DataError(f"problem {self.id}: source and target sizes differ "
                            f"({len(self.source)} vs {len(self.target)})")
        if len(self.source) < 2:
            raise DataError(f"problem {self.id}: needs at least 2 terms")
        for name, side in (("source", self.source), ("target", self.target)):
            if len(set(side)) != len(side):
                raise DataError(f"problem {self.id}: duplicate terms in {name}")
        for tag in self.pos_tags.values():
            if tag not in POS_TAGS:
                raise DataError(f"problem {self.id}: unknown POS tag {tag!r}")
        if self.intended:
            targets = {t.text for t in self.target}
            mapped = list(self.intended.values())
            sources = {t.text for t in self.source}
            if set(self.intended) != sources or set(mapped) != targets \
                    or len(set(mapped)) != len(mapped):
                raise DataError(f"problem {self.id}: intended mapping is not a "
                                f"bijection between source and target")
        if self.agreement:
            missing = [t.text for t in self.source if t.text not in self.agreement]
            if missing:
                raise DataError(f"problem {self.id}: agreement gives no value "
                                f"for {', '.join(missing)}")

    @property
    def m(self) -> int:
        return len(self.source)

    @classmethod
    def build(cls, id: str, source: list[str], target: list[str], *,
              pos: Optional[dict[str, str]] = None,
              intended: Optional[dict[str, str]] = None,
              agreement: Optional[dict[str, float]] = None,
              mnemonic: str = "") -> "MappingProblem":
        src = tuple(Term.parse(s) for s in source)
        tgt = tuple(Term.parse(s) for s in target)
        norm = lambda d: {Term.parse(k).text: v for k, v in (d or {}).items()}
        intended_norm = {Term.parse(k).text: Term.parse(v).text
                         for k, v in (intended or {}).items()}
        return cls(id=id, source=src, target=tgt, pos_tags=norm(pos),
                   intended=intended_norm, agreement=norm(agreement),
                   mnemonic=mnemonic)

    def intended_mapping(self) -> "Mapping":
        """The annotated gold mapping as a permutation, if present."""
        if not self.intended:
            raise DataError(f"problem {self.id}: no intended mapping")
        tgt_index = {t.text: j for j, t in enumerate(self.target)}
        perm = tuple(tgt_index[self.intended[s.text]] for s in self.source)
        return Mapping(problem_id=self.id, perm=perm)

    def restricted(self, indices: list[int], suffix: str = "sub") -> "MappingProblem":
        """Subproblem over the given source indices and their intended images."""
        if not self.intended:
            raise DataError(f"problem {self.id}: restriction needs an intended mapping")
        src = [self.source[i] for i in sorted(indices)]
        tgt_texts = {self.intended[t.text] for t in src}
        tgt = [t for t in self.target if t.text in tgt_texts]
        keep = {t.text for t in src} | tgt_texts
        return MappingProblem(
            id=f"{self.id}#{suffix}",
            source=tuple(src),
            target=tuple(tgt),
            pos_tags={k: v for k, v in self.pos_tags.items() if k in keep},
            intended={t.text: self.intended[t.text] for t in src},
            agreement={k: v for k, v in self.agreement.items() if k in keep},
            mnemonic=self.mnemonic,
        )


@dataclass(frozen=True)
class Mapping:
    """A bijection, stored as source index -> target index."""

    problem_id: str
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise DataError(f"not a permutation: {self.perm}")
