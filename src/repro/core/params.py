"""Scheme parameters for the Section 2 construction.

The paper fixes c = 2e and asks for constants d > 2,
delta in (2/(d+2), 1 - 1/d), alpha > d / (c (ln c - 1)) and beta >= 2,
then derives

- r = n^(1-delta)          (coarse g-buckets),
- m = n / (alpha ln n)     (groups), adjusted so that m | s,
- s = beta n               (buckets / row width), rounded up to a
  multiple of m,
- group size G = s/m = Theta(log n) buckets per group,
- rho = ceil((G + ceil(c n / m)) / b) histogram words per group —
  O(1) because both terms are Theta(log n) = Theta(b).

:class:`SchemeParameters` validates the constraints and freezes the
derived integers; experiments sweep the constants through it (E13).
"""

from __future__ import annotations

import dataclasses
import math

from repro.cellprobe.table import CELL_BITS
from repro.errors import ParameterError
from repro.utils.bits import WORD_BITS


@dataclasses.dataclass(frozen=True)
class SchemeParameters:
    """Validated parameters of the low-contention scheme for a given n.

    Parameters
    ----------
    n:
        Number of stored keys.
    degree:
        Independence degree d > 2 of the polynomial families.
    c:
        The load-slack constant; the paper uses c = 2e.
    delta:
        Exponent for r = n^(1-delta); ``None`` picks the midpoint of the
        legal interval (2/(d+2), 1 - 1/d).
    alpha:
        Group-count constant, m ~ n/(alpha ln n); must exceed
        d / (c (ln c - 1)).
    beta:
        Space factor, s ~ beta n; must be >= 2.
    word_bits:
        Cell width b (default 64, at most the table's 64-bit cells).
    """

    n: int
    degree: int = 3
    c: float = 2.0 * math.e
    delta: float | None = None
    alpha: float = 1.25
    beta: float = 2.0
    word_bits: int = WORD_BITS

    # Derived (filled in __post_init__ via object.__setattr__).
    r: int = dataclasses.field(init=False)
    m: int = dataclasses.field(init=False)
    s: int = dataclasses.field(init=False)
    group_size: int = dataclasses.field(init=False)
    rho: int = dataclasses.field(init=False)
    max_group_load: int = dataclasses.field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("n must be >= 2")
        if self.degree <= 2:
            raise ParameterError("degree d must be > 2 (Lemma 9)")
        if self.c <= math.e:
            raise ParameterError("c must exceed e (Theorem 7)")
        lo, hi = 2.0 / (self.degree + 2.0), 1.0 - 1.0 / self.degree
        delta = (lo + hi) / 2.0 if self.delta is None else float(self.delta)
        if not lo < delta < hi:
            raise ParameterError(
                f"delta must lie in ({lo:.4f}, {hi:.4f}), got {delta}"
            )
        object.__setattr__(self, "delta", delta)
        alpha_min = self.degree / (self.c * (math.log(self.c) - 1.0))
        if self.alpha <= alpha_min:
            raise ParameterError(
                f"alpha must exceed d/(c(ln c - 1)) = {alpha_min:.4f}, "
                f"got {self.alpha}"
            )
        if self.beta < 2.0:
            raise ParameterError("beta must be >= 2")
        if self.word_bits < 8:
            raise ParameterError("word_bits must be >= 8")
        if self.word_bits > CELL_BITS:
            raise ParameterError(
                f"word_bits must be <= {CELL_BITS}, the table's cell width"
            )

        n = self.n
        r = max(2, round(n ** (1.0 - delta)))
        log_n = max(math.log(n), 1.0)
        m = max(1, min(n, round(n / (self.alpha * log_n))))
        # s: smallest multiple of m that is >= beta*n.
        target = int(math.ceil(self.beta * n))
        s = ((target + m - 1) // m) * m
        group_size = s // m
        max_group_load = int(math.ceil(self.c * n / m))
        hist_bits = group_size + max_group_load
        rho = max(1, (hist_bits + self.word_bits - 1) // self.word_bits)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "group_size", group_size)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "max_group_load", max_group_load)

    # -- row layout ---------------------------------------------------------------

    @property
    def coefficient_rows(self) -> int:
        """Rows [0, 2d): the f and g coefficient words, one per row."""
        return 2 * self.degree

    @property
    def z_row(self) -> int:
        return 2 * self.degree

    @property
    def gbas_row(self) -> int:
        return 2 * self.degree + 1

    @property
    def histogram_rows(self) -> range:
        start = 2 * self.degree + 2
        return range(start, start + self.rho)

    @property
    def phf_row(self) -> int:
        return 2 * self.degree + 2 + self.rho

    @property
    def data_row(self) -> int:
        return 2 * self.degree + 3 + self.rho

    @property
    def num_rows(self) -> int:
        """Total rows = 2d + rho + 4 = O(1)."""
        return 2 * self.degree + self.rho + 4

    @property
    def max_probes(self) -> int:
        """One probe per row: 2d + rho + 4 (empty buckets stop 2 early)."""
        return self.num_rows

    @property
    def space_words(self) -> int:
        """Total table cells: num_rows * s = O(n)."""
        return self.num_rows * self.s

    # -- load-condition thresholds (property P(S)) -----------------------------------

    @property
    def max_g_load(self) -> float:
        """Lemma 9(1) threshold: every g-bucket load <= c*n/r."""
        return self.c * self.n / self.r

    @property
    def max_group_load_threshold(self) -> float:
        """Lemma 9(2) threshold: every group load <= c*n/m."""
        return self.c * self.n / self.m

    @property
    def fks_budget(self) -> int:
        """Lemma 9(3) threshold: sum of squared bucket loads <= s."""
        return self.s

    def z_copies(self, g_value: int) -> int:
        """Replicas of z[g_value] in the z row: |{j < s : j ≡ g_value (mod r)}|."""
        if not 0 <= g_value < self.r:
            raise ParameterError(f"g_value {g_value} outside [0, {self.r})")
        return (self.s - g_value + self.r - 1) // self.r
