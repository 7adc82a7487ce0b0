"""Independent answers for checking cordspec's outputs.

Nothing here imports cordspec.  Words are evaluated by plain 2x2 complex
matrix products of the generators read from the presentation file, and the
cord length of a class follows from the closed form 2 ln(a0 |c|), where c is
the lower-left entry of the determinant-1 matrix.
"""

from __future__ import annotations

import json
import math


class Presentation:
    """Generators of a holonomy presentation as 2x2 complex matrices."""

    def __init__(self, path):
        with open(path) as f:
            data = json.load(f)
        self.table = {}
        for i, gd in enumerate(data["generators"]):
            a, b, c, d = (complex(*gd[k]) for k in "abcd")
            letter = chr(ord("a") + i)
            self.table[letter] = (a, b, c, d)
            self.table[letter.upper()] = (d, -b, -c, a)  # inverse, det 1
        (m1, m2), (l1, l2) = data["cusp_lattice"]
        self.mu, self.lam = complex(m1, m2), complex(l1, l2)

    def evaluate(self, word: str) -> tuple:
        """The determinant-1 matrix (a, b, c, d) of a generator word."""
        a, b, c, d = 1, 0, 0, 1
        for ch in word:
            e, f, g, h = self.table[ch]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        s = complex(a * d - b * c) ** 0.5
        return a / s, b / s, c / s, d / s

    def cord_length(self, word: str, a0: float) -> float:
        """2 ln(a0 |c|); NaN for a peripheral or degenerate class."""
        c = abs(self.evaluate(word)[2])
        if c < 1e-9 or a0 * c <= 1.0 + 1e-9:
            return math.nan
        return 2.0 * math.log(a0 * c)

    def center_key(self, word: str, digits: int = 6) -> tuple:
        """Horoball center a/c reduced modulo the cusp lattice, rounded.

        The center of g.{z >= a0} is g(infinity) = a/c; left multiplication
        by a peripheral element moves it by a lattice vector and right
        multiplication fixes it, so the reduced center names the double
        coset.
        """
        a, _, c, _ = self.evaluate(word)
        w = a / c
        mu, lam = self.mu, self.lam
        det = mu.real * lam.imag - lam.real * mu.imag
        s = (w.real * lam.imag - lam.real * w.imag) / det
        t = (mu.real * w.imag - w.real * mu.imag) / det
        s -= math.floor(s + 1e-9)
        t -= math.floor(t + 1e-9)
        return round(s, digits) % 1.0, round(t, digits) % 1.0


def duplicate_centers(pres: Presentation, words) -> int:
    """Entries whose reduced horoball center repeats an earlier entry's."""
    keys = [pres.center_key(w) for w in words]
    return len(keys) - len(set(keys))


def hamiltonian(state) -> float:
    """Kinetic Hamiltonian z^2 |p|^2 / 2 of a state (x, y, z, px, py, pz)."""
    z = state[2]
    return 0.5 * z * z * sum(p * p for p in state[3:6])
