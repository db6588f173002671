"""Object I/O: computation packaged with the I/O description.

This is the paper's central programming construct (§III-A, Figure 6):
the user declares the access region, the I/O mode, and the computation
(an operator) in one object, which is handed to the collective-read
call and travels down to the two-phase layer where the map is executed.

``block=True`` degenerates to the traditional code path — I/O first,
computation after — exactly as the paper specifies ("essentially
identical to the traditional MPI-IO code").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..dataspace import DatasetSpec, Subarray
from ..errors import CollectiveComputingError
from ..io import CollectiveHints
from .ops import MapReduceOp

#: Valid I/O modes (paper: ``io.mode = collective`` / ``independent``).
MODES = ("collective", "independent")
#: Valid reduce strategies (paper §III-C).
REDUCE_MODES = ("all_to_all", "all_to_one")


@dataclass(frozen=True)
class ObjectIO:
    """An access region + a computation + runtime knobs.

    Parameters
    ----------
    spec:
        Dataset being analysed.
    sub:
        This rank's hyperslab of the dataset.
    op:
        The map/reduce computation.
    mode:
        ``"collective"`` (two-phase) or ``"independent"``.
    block:
        ``False`` runs the collective-computing pipeline;
        ``True`` runs the traditional blocking path (I/O, then compute).
    reduce_mode:
        How intermediate results are shuffled (paper §III-C):
        ``"all_to_all"`` sends each rank its own partials for a local
        reduce; ``"all_to_one"`` concentrates everything on the root.
    root:
        Rank receiving the global result.
    hints:
        Collective-buffering hints.
    """

    spec: DatasetSpec
    sub: Subarray
    op: MapReduceOp
    mode: str = "collective"
    block: bool = False
    reduce_mode: str = "all_to_all"
    root: int = 0
    hints: CollectiveHints = field(default_factory=CollectiveHints)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise CollectiveComputingError(
                f"io.mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.reduce_mode not in REDUCE_MODES:
            raise CollectiveComputingError(
                f"reduce_mode must be one of {REDUCE_MODES}, "
                f"got {self.reduce_mode!r}"
            )
        if self.root < 0:
            raise CollectiveComputingError(f"negative root {self.root}")
        self.sub.validate(self.spec)

    def for_rank(self, sub: Subarray) -> "ObjectIO":
        """Copy of this object with a different per-rank region (used by
        launchers that decompose a global region across ranks)."""
        return replace(self, sub=sub)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ObjectIO {self.spec.name!r} sub={self.sub} op={self.op.name} "
                f"mode={self.mode} block={self.block} reduce={self.reduce_mode}>")
