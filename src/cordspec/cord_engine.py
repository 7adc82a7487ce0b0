"""Geodesic cords of a horo-torus: the ``Cord`` record that the Neumann
shooter returns, and the action spectrum, with closed-form lengths, over the
peripheral double cosets that the Ford-descent flood enumerates."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .hyperbolic_core import PointH3
from .isometry_group import GroupPresentation, enumerate_elements, ford_moves

# a0 |c(g)| <= 1 + TANGENT_TOL: the horoballs of g's class touch or overlap
TANGENT_TOL = 1e-9


@dataclass
class Cord:
    """A geodesic arc meeting two horospheres orthogonally, given by its
    length, its endpoints and the ideal centers of the two horoballs."""

    length: float
    start: PointH3
    end: PointH3
    centers: tuple


# an entry is its quoted word, then the text that its length determines
_ENTRY_HEAD = '  {\n   "class_word": '
_ENTRY_TAIL = (',\n   "length": %r,\n   "energy": %r,\n   "action": %r,'
               '\n   "f0": %s,\n   "b0": %s\n  }')


@dataclass
class ActionSpectrum:
    """The cord classes up to ``cutoff`` as two parallel columns in the
    printed order: ``words`` (each class's name) and ``lengths``.  Every
    other printed field is a function of the length and the height: energy
    l^2/2, action -l^2/2, and f0 = b0 = 1/a0 for the vertical cords."""

    words: list
    lengths: list
    cutoff: float
    horoball_height: float
    stats: dict = field(default_factory=dict)  # how the flood found them

    def to_json(self) -> str:
        """``json.dumps`` of {cutoff, horoball_height, entries} with
        indent=1, byte for byte, without its pure-Python indenting encoder:
        each entry is its word, quoted, then the rest of a fixed template,
        filled once per distinct length with the finite floats written by
        ``float.__repr__`` as json writes them."""
        head = '{\n "cutoff": %s,\n "horoball_height": %s,\n "entries": ' % (
            json.dumps(self.cutoff), json.dumps(self.horoball_height))
        if not self.words:
            return head + "[]\n}"
        f0 = repr(1.0 / self.horoball_height)
        tails = {ell: _ENTRY_TAIL % (ell, 0.5 * ell**2, -0.5 * ell**2, f0, f0)
                 for ell in set(self.lengths)}
        return head + "[\n" + ",\n".join([
            _ENTRY_HEAD + encode_basestring_ascii(w) + tails[ell]
            for w, ell in zip(self.words, self.lengths)]) + "\n ]\n}"

    def write_csv(self, path):
        f0 = f"{1.0 / self.horoball_height:.12g}"
        tails = {ell: [f"{ell:.12g}", f"{0.5 * ell**2:.12g}",
                       f"{-0.5 * ell**2:.12g}", f0, f0]
                 for ell in set(self.lengths)}
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["class_word", "length", "energy", "action", "f0", "b0"])
            w.writerows([word, *tails[ell]]
                        for word, ell in zip(self.words, self.lengths))

    def write_json(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())


def max_embedded_height(rep: GroupPresentation) -> float:
    """Smallest height a0 such that the translates of {z >= a0} are pairwise
    disjoint: 1 / min |c| over the non-peripheral elements, which is
    1 / min |c_k| over the moves of ``ford_moves``.  An element g of least
    |c| has its center in a move's disk, and k^{-1} T_{-v} g, with smaller
    |c|, must be peripheral: g lies in k's class."""
    return 1.0 / ford_moves(rep).least_c


def check_embedded(rep: GroupPresentation, a0: float) -> None:
    """Raise ValueError when a0 is below the embedded-height threshold."""
    a_min = max_embedded_height(rep)
    if a0 < a_min - 1e-9:
        raise ValueError(
            f"height {a0} below embedded threshold {a_min}: horoballs overlap")


def canonical_classes(rep: GroupPresentation, a0: float,
                      Lmax: float) -> ActionSpectrum:
    """The classes with nondegenerate cord length <= Lmax, as the words and
    lengths columns of an ``ActionSpectrum`` sorted by (length rounded to 9
    digits, word); ValueError if a0 is below the embedded threshold.  The
    classes and their words come from the flood of ``enumerate_elements``,
    which is complete up to the cutoff; a class's length 2 ln(a0 |c|)
    depends on its |c| alone, so no representative is formed.  Tangent
    classes are steps of the flood and are left out here.  ``stats`` holds
    the moves (how many, least |c|, cover margin), the levels, the steps
    tried, the classes the flood kept and the reason it stopped."""
    check_embedded(rep, a0)
    levels = list(enumerate_elements(rep, max_radius=Lmax, a0=a0))
    ac = np.abs(np.concatenate([g[2] for g, _, _ in levels] or [[]]))
    ell = 2.0 * np.log(a0 * ac)
    # not tangent (a degenerate class), within the cutoff
    rows = np.flatnonzero((a0 * ac > 1.0 + TANGENT_TOL) & (ell <= Lmax + 1e-12))
    words = np.array([w for _, ws, _ in levels for w in ws], dtype=str)[rows]
    ell = ell[rows]
    order = np.lexsort((words, np.round(ell, 9)))
    moves = ford_moves(rep)
    return ActionSpectrum(words[order].tolist(), ell[order].tolist(), Lmax,
                          a0, {"moves": len(moves.words),
                               "least_c": moves.least_c,
                               "cover_margin": moves.margin,
                               "levels": len(levels),
                               "steps": sum(s for _, _, s in levels),
                               "kept": len(ac), "stop": "exhausted"})


def enumerate_cords(rep: GroupPresentation, a0: float,
                    Lmax: float) -> ActionSpectrum:
    """The action spectrum up to Lmax: the table of ``canonical_classes``."""
    return canonical_classes(rep, a0, Lmax)
