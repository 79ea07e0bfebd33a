"""Parameter schedule for the embedding pipeline.

The guarantees behind the pipeline are asymptotic and are stated through a
hierarchy of constants.  At the instance sizes this library targets
(n roughly 100..5000) the hierarchy cannot be satisfied literally, so the
constants a caller tunes are explicit, documented knobs here, and a
schedule validator warns on values out of range.  Desk-scale constants that
no caller tunes (the guide-graph shape, leaf-part sizing, the partition
redraws) are defined next to the code that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ParamSchedule:
    """The tunable pipeline constants plus the retry budget.

    Fraction fields are relative to the host size n unless noted.
    """

    alpha: float = 0.2        # semidegree surplus: delta^0(D) >= (1/2 + alpha) n
    c: float = 0.01           # nominal degree-cap constant (cap = c*n/log n, see max_tree_semidegree)
    eps: float = 0.1          # slack fraction: the absorber gap (see absorb_gap)
    mu: float = 0.02          # absorber-tree fraction for the spanning pipeline
    eta: float = 0.05         # decomposition core bound: |T0| <= eta * |T|
    beta: float = 0.05        # connector-buffer fraction for path attachment
    lam: float = 0.01         # switchability threshold fraction (property-S reservoir)
    k: int = 20               # minimum size of a path-attached piece
    K: int = 400              # maximum size of small trees (stars and pieces)
    retries: int = 10         # per-phase Las Vegas retry budget

    # Desk-scale knobs (derived in the source analysis, configurable here).
    strip_eps: float | None = None   # independent-leaf stripping threshold; None -> 1/(2k)
    max_tree_semidegree: int = 3     # replaces c*n/log n, which is < 1 at desk scale
    switch_margin: int = 4           # property-S threshold exceeds the swap count by this margin

    def __post_init__(self) -> None:
        if self.retries < 1:
            raise ValueError(f"retry budget must be at least 1, got {self.retries}")

    def strip_threshold(self) -> float:
        return self.strip_eps if self.strip_eps is not None else 1.0 / (2 * self.k)

    def validate(self) -> list[str]:
        """Return human-readable warnings for out-of-range or inconsistent values.

        The asymptotic hierarchy 1/n << c << eps << mu << alpha is not
        checked: the calibrated desk-scale schedules set mu above alpha on
        purpose, and decompose itself rejects k < 8.
        """
        warnings = []
        if not (0 < self.alpha < 0.5):
            warnings.append(f"alpha={self.alpha} outside (0, 1/2)")
        for name in ("c", "eps", "mu", "eta", "beta", "lam"):
            val = getattr(self, name)
            if not (0 < val <= 1):
                warnings.append(f"{name}={val} outside (0, 1]")
        if self.k >= self.K:
            warnings.append(f"k={self.k} >= K={self.K}")
        if self.lam > self.mu:
            warnings.append(f"lam={self.lam} > mu={self.mu}")
        return warnings

    def with_updates(self, **kwargs) -> "ParamSchedule":
        return replace(self, **kwargs)

    # Integerized per-phase quantities.

    def strip_count(self, tree_n: int) -> int:
        """Minimum independent-leaf batch removed per stripping round.

        The floor of 3 keeps bare paths intact: a path has exactly 2
        independent leaves and must survive stripping for the chopper.
        """
        return max(3, math.ceil(self.strip_threshold() * tree_n))

    def absorb_gap(self, n: int) -> int:
        """Host vertices left over for the absorber to swallow (the eps*n gap)."""
        return max(2, round(self.eps * n))

    def absorber_size(self, n: int) -> int:
        """Target size of the absorber tree (the mu*n split point)."""
        return max(self.absorb_gap(n) + 4, round(self.mu * n))

    def switch_threshold(self, n: int, swap_count: int) -> int:
        """Property-S verification threshold.

        The asymptotic statement checks lam*n; a completion with swap_count
        switches additionally needs the reservoir to survive that many
        retirements, hence the second term.
        """
        return max(2, math.ceil(self.lam * n), swap_count + self.switch_margin)

    def degree_cap(self, n: int) -> int:
        """Maximum in-/out-degree accepted for the guest tree."""
        asymptotic = self.c * n / math.log(n) if n > 2 else 1.0
        return max(self.max_tree_semidegree, math.floor(asymptotic))


def spanning_defaults(n: int, alpha: float) -> ParamSchedule:
    """Calibrated schedule for the spanning and almost-spanning pipelines at desk scale.

    The absorber needs a large switch reservoir relative to the swap count,
    and every matching phase needs a handful of genuinely spare vertices, so
    mu is far larger and eps far smaller than the nominal defaults.
    """
    eps = min(0.09, max(0.065, 34.0 / n))
    mu = 0.38
    return ParamSchedule(
        alpha=alpha,
        eps=eps,
        mu=mu,
        eta=0.08,
        beta=0.06,
        lam=2.0 / n,
        k=12,
        K=max(60, n // 3),
        retries=10,
        strip_eps=0.02,
    )
