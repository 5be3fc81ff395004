"""The builtin set of twenty analogical mapping problems.

Ten science analogies (A1-A10) and ten common metaphors (M1-M10).
Each row is (source term, target term, human agreement %, POS tag);
the target column is the intended mapping, corresponding terms always
carry the same part-of-speech tag, and the agreement column is the
percentage of human raters who chose the intended target for that
source term.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .problems import MappingProblem

_ROWS = {
    "A1": ("solar system -> atom", [
        ("solar system", "atom", 86.4, "NN"),
        ("sun", "nucleus", 100.0, "NN"),
        ("planet", "electron", 95.5, "NN"),
        ("mass", "charge", 86.4, "NN"),
        ("attracts", "attracts", 90.9, "VBZ"),
        ("revolves", "revolves", 95.5, "VBZ"),
        ("gravity", "electromagnetism", 81.8, "NN"),
    ]),
    "A2": ("water flow -> heat transfer", [
        ("water", "heat", 86.4, "NN"),
        ("flows", "transfers", 95.5, "VBZ"),
        ("pressure", "temperature", 86.4, "NN"),
        ("water tower", "burner", 72.7, "NN"),
        ("bucket", "kettle", 72.7, "NN"),
        ("filling", "heating", 95.5, "VBG"),
        ("emptying", "cooling", 95.5, "VBG"),
        ("hydrodynamics", "thermodynamics", 90.9, "NN"),
    ]),
    "A3": ("waves -> sounds", [
        ("waves", "sounds", 86.4, "NNS"),
        ("shore", "wall", 77.3, "NN"),
        ("reflects", "echoes", 95.5, "VBZ"),
        ("water", "air", 95.5, "NN"),
        ("breakwater", "insulation", 81.8, "NN"),
        ("rough", "loud", 63.6, "JJ"),
        ("calm", "quiet", 100.0, "JJ"),
        ("crashing", "vibrating", 54.5, "VBG"),
    ]),
    "A4": ("combustion -> respiration", [
        ("combustion", "respiration", 72.7, "NN"),
        ("fire", "animal", 95.5, "NN"),
        ("fuel", "food", 90.9, "NN"),
        ("burning", "breathing", 72.7, "VBG"),
        ("hot", "living", 59.1, "JJ"),
        ("intense", "vigorous", 77.3, "JJ"),
        ("oxygen", "oxygen", 77.3, "NN"),
        ("carbon dioxide", "carbon dioxide", 86.4, "NN"),
    ]),
    "A5": ("sound -> light", [
        ("sound", "light", 86.4, "NN"),
        ("low", "red", 50.0, "JJ"),
        ("high", "violet", 54.5, "JJ"),
        ("echoes", "reflects", 100.0, "VBZ"),
        ("loud", "bright", 90.9, "JJ"),
        ("quiet", "dim", 77.3, "JJ"),
        ("horn", "lens", 95.5, "NN"),
    ]),
    "A6": ("projectile -> planet", [
        ("projectile", "planet", 100.0, "NN"),
        ("trajectory", "orbit", 100.0, "NN"),
        ("earth", "sun", 100.0, "NN"),
        ("parabolic", "elliptical", 100.0, "JJ"),
        ("air", "space", 100.0, "NN"),
        ("gravity", "gravity", 90.9, "NN"),
        ("attracts", "attracts", 90.9, "VBZ"),
    ]),
    "A7": ("artificial selection -> natural selection", [
        ("breeds", "species", 100.0, "NNS"),
        ("selection", "competition", 59.1, "NN"),
        ("conformance", "adaptation", 59.1, "NN"),
        ("artificial", "natural", 77.3, "JJ"),
        ("popularity", "fitness", 54.5, "NN"),
        ("breeding", "mating", 95.5, "VBG"),
        ("domesticated", "wild", 77.3, "JJ"),
    ]),
    "A8": ("billiard balls -> gas molecules", [
        ("balls", "molecules", 90.9, "NNS"),
        ("billiards", "gas", 72.7, "NN"),
        ("speed", "temperature", 81.8, "NN"),
        ("table", "container", 95.5, "NN"),
        ("bouncing", "pressing", 77.3, "VBG"),
        ("moving", "moving", 86.4, "VBG"),
        ("slow", "cold", 100.0, "JJ"),
        ("fast", "hot", 100.0, "JJ"),
    ]),
    "A9": ("computer -> mind", [
        ("computer", "mind", 90.9, "NN"),
        ("processing", "thinking", 95.5, "VBG"),
        ("erasing", "forgetting", 100.0, "VBG"),
        ("write", "memorize", 72.7, "VB"),
        ("read", "remember", 54.5, "VB"),
        ("memory", "memory", 81.8, "NN"),
        ("outputs", "muscles", 72.7, "NNS"),
        ("inputs", "senses", 90.9, "NNS"),
        ("bug", "mistake", 100.0, "NN"),
    ]),
    "A10": ("slot machine -> bacterial mutation", [
        ("slot machines", "bacteria", 68.2, "NNS"),
        ("reels", "genes", 72.7, "NNS"),
        ("spinning", "mutating", 86.4, "VBG"),
        ("winning", "reproducing", 90.9, "VBG"),
        ("losing", "dying", 100.0, "VBG"),
    ]),
    "M1": ("war -> argument", [
        ("war", "argument", 90.9, "NN"),
        ("soldier", "debater", 100.0, "NN"),
        ("destroy", "refute", 90.9, "VB"),
        ("fighting", "arguing", 95.5, "VBG"),
        ("defeat", "acceptance", 90.9, "NN"),
        ("attacks", "criticizes", 95.5, "VBZ"),
        ("weapon", "logic", 90.9, "NN"),
    ]),
    "M2": ("buying an item -> accepting a belief", [
        ("buyer", "believer", 100.0, "NN"),
        ("merchandise", "belief", 90.9, "NN"),
        ("buying", "accepting", 95.5, "VBG"),
        ("selling", "advocating", 100.0, "VBG"),
        ("returning", "rejecting", 95.5, "VBG"),
        ("valuable", "true", 95.5, "JJ"),
        ("worthless", "false", 95.5, "JJ"),
    ]),
    "M3": ("grounds for a building -> reasons for a theory", [
        ("foundations", "reasons", 72.7, "NNS"),
        ("buildings", "theories", 77.3, "NNS"),
        ("supporting", "confirming", 95.5, "VBG"),
        ("solid", "rational", 90.9, "JJ"),
        ("weak", "dubious", 95.5, "JJ"),
        ("crack", "flaw", 95.5, "NN"),
    ]),
    "M4": ("impediments to travel -> difficulties", [
        ("obstructions", "difficulties", 100.0, "NNS"),
        ("destination", "goal", 100.0, "NN"),
        ("route", "plan", 100.0, "NN"),
        ("traveller", "person", 100.0, "NN"),
        ("travelling", "problem solving", 100.0, "VBG"),
        ("companion", "partner", 100.0, "NN"),
        ("arriving", "succeeding", 100.0, "VBG"),
    ]),
    "M5": ("money -> time", [
        ("money", "time", 95.5, "NN"),
        ("allocate", "invest", 86.4, "VB"),
        ("budget", "schedule", 86.4, "NN"),
        ("effective", "efficient", 86.4, "JJ"),
        ("cheap", "quick", 50.0, "JJ"),
        ("expensive", "slow", 59.1, "JJ"),
    ]),
    "M6": ("seeds -> ideas", [
        ("seeds", "ideas", 90.9, "NNS"),
        ("planted", "inspired", 95.5, "VBD"),
        ("fruitful", "productive", 81.8, "JJ"),
        ("fruit", "product", 95.5, "NN"),
        ("grow", "develop", 81.8, "VB"),
        ("wither", "fail", 100.0, "VB"),
        ("blossom", "succeed", 77.3, "VB"),
    ]),
    "M7": ("machine -> mind", [
        ("machine", "mind", 95.5, "NN"),
        ("working", "thinking", 100.0, "VBG"),
        ("turned on", "awake", 100.0, "JJ"),
        ("turned off", "asleep", 100.0, "JJ"),
        ("broken", "confused", 100.0, "JJ"),
        ("power", "intelligence", 95.5, "NN"),
        ("repair", "therapy", 100.0, "NN"),
    ]),
    "M8": ("object -> idea", [
        ("object", "idea", 90.9, "NN"),
        ("hold", "understand", 81.8, "VB"),
        ("weigh", "analyze", 81.8, "VB"),
        ("heavy", "important", 95.5, "JJ"),
        ("light", "trivial", 95.5, "JJ"),
    ]),
    "M9": ("following -> understanding", [
        ("follow", "understand", 100.0, "VB"),
        ("leader", "speaker", 100.0, "NN"),
        ("path", "argument", 100.0, "NN"),
        ("follower", "listener", 100.0, "NN"),
        ("lost", "misunderstood", 86.4, "JJ"),
        ("wanders", "digresses", 90.9, "VBZ"),
        ("twisted", "complicated", 95.5, "JJ"),
        ("straight", "simple", 100.0, "JJ"),
    ]),
    "M10": ("seeing -> understanding", [
        ("seeing", "understanding", 68.2, "VBG"),
        ("light", "knowledge", 77.3, "NN"),
        ("illuminating", "explaining", 86.4, "VBG"),
        ("darkness", "confusion", 86.4, "NN"),
        ("view", "interpretation", 68.2, "NN"),
        ("hidden", "secret", 86.4, "JJ"),
    ]),
}


def _build_problem(pid: str, mnemonic: str, rows) -> MappingProblem:
    source = [r[0] for r in rows]
    target = [r[1] for r in rows]
    pos = {}
    for src, tgt, _, tag in rows:
        pos[src] = tag
        pos[tgt] = tag
    return MappingProblem.build(
        id=pid, source=source, target=target, pos=pos,
        intended={r[0]: r[1] for r in rows},
        agreement={r[0]: r[2] for r in rows},
        mnemonic=mnemonic)


@dataclass
class Dataset:
    """An ordered collection of mapping problems."""

    problems: list[MappingProblem]

    def __iter__(self):
        return iter(self.problems)

    def __len__(self):
        return len(self.problems)

    def mean_agreement(self, problem: MappingProblem) -> float:
        return mean([problem.agreement[t.text] for t in problem.source])


def mean(values: list[float]) -> float:
    """The values added left to right from 0.0, divided by their number.

    From Python 3.12 the builtin `sum()` of floats is compensated; this
    loop gives the bits of 3.10 and 3.11 on every version, so no report
    depends on the Python version.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def builtin_dataset() -> Dataset:
    return Dataset([_build_problem(pid, mnemonic, rows)
                    for pid, (mnemonic, rows) in _ROWS.items()])


def _check_pos_consistency(problem: MappingProblem) -> None:
    if not problem.intended or not problem.pos_tags:
        return
    for src, tgt in problem.intended.items():
        if problem.pos_tags.get(src) != problem.pos_tags.get(tgt):
            raise DataError(f"problem {problem.id}: intended pair {src}->{tgt} "
                            f"mixes POS tags")


def load_problems(path: str | Path | None = None) -> Dataset:
    """Problems from a JSON file, or the builtin set when no path is given.

    The file may hold one problem object or a list of them; each object
    has fields id, source, target and optional pos, intended, agreement
    and mnemonic. Multiword terms are single strings with spaces. A
    malformed entry raises DataError naming the file and the problem, and
    so does an id that two problems share.
    """
    if path is None:
        return builtin_dataset()
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load problem file {p}: {exc}") from exc
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise DataError(f"{p}: expected a problem object or list of them")
    problems = [_problem_from_entry(p, entry) for entry in payload]
    seen = set()
    for problem in problems:
        if problem.id in seen:
            raise DataError(f"{p}: two problems have the id {problem.id!r}")
        seen.add(problem.id)
    return Dataset(problems)


def _problem_from_entry(p: Path, entry) -> MappingProblem:
    """The problem of one entry of problem file `p`, its types checked first."""
    if not isinstance(entry, dict):
        raise DataError(f"{p}: problem entry {entry!r} is not an object")
    for key in ("id", "source", "target"):
        if key not in entry:
            raise DataError(f"{p}: problem entry missing field {key!r}")
    where = f"{p}: problem {entry['id']}"
    for key in ("source", "target"):
        terms = entry[key]
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
            raise DataError(f"{where}: {key} must be a list of term strings")
    for key, kind, what in (("pos", str, "tags"), ("intended", str, "terms"),
                            ("agreement", (int, float), "numbers")):
        table = entry.get(key)
        if table is not None and not (isinstance(table, dict) and all(
                isinstance(v, kind) for v in table.values())):
            raise DataError(f"{where}: {key} must map terms to {what}")
    try:
        problem = MappingProblem.build(
            id=str(entry["id"]),
            source=entry["source"],
            target=entry["target"],
            pos=entry.get("pos"),
            intended=entry.get("intended"),
            agreement=entry.get("agreement"),
            mnemonic=entry.get("mnemonic", ""),
        )
        _check_pos_consistency(problem)
    except ValueError as exc:  # a term that does not normalize
        raise DataError(f"{where}: {exc}") from exc
    except DataError as exc:  # the message names the problem
        raise DataError(f"{p}: {exc}") from exc
    return problem


def dump_problems(dataset: Dataset, path: str | Path) -> None:
    """Write problems in the JSON interchange format."""
    payload = []
    for p in dataset:
        entry: dict = {"id": p.id,
                       "source": [t.text for t in p.source],
                       "target": [t.text for t in p.target]}
        if p.pos_tags:
            entry["pos"] = p.pos_tags
        if p.intended:
            entry["intended"] = p.intended
        if p.agreement:
            entry["agreement"] = p.agreement
        if p.mnemonic:
            entry["mnemonic"] = p.mnemonic
        payload.append(entry)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
