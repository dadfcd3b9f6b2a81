"""Online Gram accumulation — the streaming half of §2.3's regression.

The Gram formulation (:func:`repro.core.regression.accumulate_gram`) is
*additive over rows*: the normal-equation blocks ``(XᵀX, Xᵀy)`` of a
dataset are the sum of the blocks of any partition of its rows.  A
:class:`GramAccumulator` exploits exactly that — new (application, shard)
observations are reduced to rank-k contributions and folded into one
running pair of blocks, so refreshing the incumbent model's coefficients
is a p×p :func:`~repro.core.regression.solve_gram` instead of a re-reduce
of every row ever seen.  ``solve_gram`` is the same solver the fitness
engine uses: Cholesky, or the minimum-norm solution when the Gram is
singular.

Equivalence contract (asserted by ``tests/test_stream.py``): folding the
same rows in N batches produces blocks equal to a one-shot
:func:`accumulate_gram` over the concatenated rows up to floating-point
summation order — relative error below :data:`ACCUMULATION_RTOL` — and
the refreshed coefficients match a batch rebuild to the same tolerance.
The accumulator is **spec-frozen**: rows are prepared by the incumbent
model's fitted transform/pruning state, so a structural change (new
specification out of the GA) requires rebuilding the accumulator from the
full dataset (:meth:`GramAccumulator.from_model`).

Checkpoints persist through :mod:`repro.store`: the whole state is packed
into a single flat column written write-once under a content-addressed
key (``stream/<name>/ckpt/<seq>-<spec>-<digest>``), so a crash —
including a kill injected at the ``stream.checkpoint`` fault site or
mid-flush at ``store.flush`` — can never tear a checkpoint; recovery
scans for the newest checkpoint whose embedded digest verifies.  The
``<spec>`` component is a digest of the specification's design-defining
state (spec, fitted transforms, surviving columns — NOT the
coefficients, which refreshes rebind): recovery and pruning only ever
consider checkpoints of the *current* specification, so a
re-specification that happens to land on the same design width can
never resurrect the old specification's Gram blocks.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro import store as store_mod
from repro.core.dataset import ProfileDataset
from repro.core.model import InferredModel
from repro.core.regression import LinearFit, accumulate_gram, solve_gram

#: Relative tolerance between N-batch accumulation and a one-shot rebuild
#: on the same rows.  Gram addition is exact apart from fp summation
#: order, so the divergence is a few ulps amplified by cancellation;
#: 1e-9 on the blocks (and the solved coefficients) holds with wide
#: margin at every scale the tests exercise.
ACCUMULATION_RTOL = 1e-9

#: Checkpoint payload layout version (first header slot).
CHECKPOINT_FORMAT = 1.0

#: Header slots ahead of the moment/gram data: format, seq, rows, batches, p.
_HEADER = 5

_CKPT_NAME = re.compile(r"^(\d{8})-([0-9a-f]{8})-([0-9a-f]{12})\.npy$")


class StreamStateError(RuntimeError):
    """Accumulator state could not be checkpointed or recovered."""


def spec_digest(model) -> str:
    """Digest of the design-defining state the accumulator is frozen to.

    Covers the specification, fitted transform state, surviving columns
    and response — everything :meth:`InferredModel.prepared_design`
    depends on — and deliberately NOT the fitted coefficients, which
    :meth:`GramAccumulator.refresh`/:meth:`InferredModel.refit_from`
    rebind without changing the design.  Models that cannot serialize
    (the test-suite stubs) fall back to their column names.
    """
    try:
        from repro.core import serialize

        body = serialize.model_to_dict(model)
        body.pop("fit", None)
        body.pop("checksum", None)
        blob = json.dumps(body, sort_keys=True)
    except Exception:
        blob = repr(tuple(getattr(model, "fit_column_names", ())))
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


class GramAccumulator:
    """Running ``(XᵀX, Xᵀy)`` blocks for one model specification.

    Rows enter through the incumbent model's
    :meth:`~repro.core.model.InferredModel.prepared_design` /
    :meth:`~repro.core.model.InferredModel.transform_targets`, so the
    blocks are always over the exact design the model's fit consumes.
    """

    def __init__(self, model: InferredModel, name: str = "default", seq: int = 0):
        self.model = model
        self.name = name
        self.spec_digest = spec_digest(model)
        p = len(model.fit_column_names) + 1  # + intercept
        self.gram = np.zeros((p, p))
        self.moment = np.zeros(p)
        self.rows = 0
        self.batches = 0
        # Checkpoint sequence number.  Carried forward across
        # re-specifications (see StreamingRespecifier._adopt) so post-respec
        # checkpoints always outrank pre-respec ones in pruning and recovery.
        self.seq = seq

    @classmethod
    def from_model(
        cls,
        model: InferredModel,
        dataset: Optional[ProfileDataset] = None,
        name: str = "default",
        seq: int = 0,
    ) -> "GramAccumulator":
        """An accumulator seeded with ``dataset``'s rows (if given)."""
        acc = cls(model, name, seq=seq)
        if dataset is not None and len(dataset):
            acc.ingest(dataset)
        return acc

    # -- accumulation ---------------------------------------------------------------

    def ingest(self, dataset: ProfileDataset) -> int:
        """Fold one observation batch into the running blocks (rank-k update)."""
        if len(dataset) == 0:
            return 0
        design = self.model.prepared_design(dataset)
        targets = self.model.transform_targets(dataset.targets())
        gram, moment = accumulate_gram(design, targets)
        self.gram += gram
        self.moment += moment
        self.rows += len(dataset)
        self.batches += 1
        obs.counter("stream.rows_accumulated").inc(len(dataset))
        return len(dataset)

    def solve(self) -> Optional[LinearFit]:
        """Coefficients over everything accumulated so far.

        One p×p :func:`solve_gram`, with no row re-reduce.  ``None`` when
        there are fewer rows than columns (genuinely underdetermined —
        callers keep the incumbent coefficients and wait for evidence) or
        the blocks are non-finite.
        """
        if self.rows < len(self.moment):
            return None
        return solve_gram(self.gram, self.moment, self.model.fit_column_names)

    def refresh(self) -> Optional[InferredModel]:
        """A model with refreshed coefficients, or ``None`` if unsolvable."""
        fit = self.solve()
        if fit is None:
            obs.counter("stream.refresh_failures").inc()
            return None
        return self.model.refit_from(fit)

    # -- persistence ----------------------------------------------------------------

    def _payload(self) -> np.ndarray:
        p = len(self.moment)
        header = np.array(
            [CHECKPOINT_FORMAT, self.seq, self.rows, self.batches, p]
        )
        return np.concatenate([header, self.moment, self.gram.ravel()])

    def _ckpt_dir(self, store: store_mod.Store):
        return store.root / "stream" / self.name / "ckpt"

    def checkpoint(self, store: Optional[store_mod.Store] = None) -> str:
        """Persist the state as one atomic, content-addressed column.

        Returns the store key.  The single-column layout is what makes the
        checkpoint crash-safe as a *unit*: the store's write-once
        tmp/fsync/rename publish means a reader sees the whole checkpoint
        or none of it, never a gram without its moment.  The
        ``stream.checkpoint`` fault site fires before the write, so an
        injected kill loses at most the checkpoint being attempted.
        """
        store = store or store_mod.Store()
        self.seq += 1
        payload = self._payload()
        digest = hashlib.sha256(payload.tobytes()).hexdigest()[:12]
        key = f"stream/{self.name}/ckpt/{self.seq:08d}-{self.spec_digest}-{digest}"
        faults.site("stream.checkpoint")
        with obs.span("stream.checkpoint"):
            store.put(key, payload)
        obs.counter("stream.checkpoints").inc()
        self._prune_checkpoints(store)
        return key

    def _prune_checkpoints(self, store: store_mod.Store, keep: int = 3) -> None:
        """Best-effort removal of superseded checkpoint columns."""
        entries = self._list_checkpoints(store)
        for _, path in entries[:-keep]:
            try:
                path.unlink()
            except OSError:
                pass

    def purge_other_specs(self, store: Optional[store_mod.Store] = None) -> int:
        """Best-effort removal of checkpoints from other specifications.

        Called after a re-specification adopts a new design: the old
        specification's checkpoints are dead weight (recovery filters
        them out regardless), so they are unlinked rather than left to
        accumulate under the shared ``stream/<name>/ckpt/`` namespace.
        Returns the number of columns removed.
        """
        store = store or store_mod.Store()
        removed = 0
        for _, path in self._list_checkpoints(store, all_specs=True):
            match = _CKPT_NAME.match(path.name)
            if match.group(2) == self.spec_digest:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _list_checkpoints(
        self, store: store_mod.Store, all_specs: bool = False
    ) -> List[Tuple[int, object]]:
        """Seq-sorted checkpoints of this accumulator's specification.

        Other specifications' checkpoints (same stream name, different
        ``spec_digest`` — e.g. left behind by a crash between respec and
        purge) are invisible here unless ``all_specs`` is set, which is
        what keeps pruning and recovery from ever touching them.
        """
        directory = self._ckpt_dir(store)
        if not directory.is_dir():
            return []
        entries = []
        for path in directory.iterdir():
            match = _CKPT_NAME.match(path.name)
            if match and (all_specs or match.group(2) == self.spec_digest):
                entries.append((int(match.group(1)), path))
        return sorted(entries)

    def recover(self, store: Optional[store_mod.Store] = None) -> bool:
        """Restore the newest verifiable checkpoint, if any.

        Scans this specification's checkpoints newest-first (checkpoints
        written under a different ``spec_digest`` are never candidates,
        whatever their design width); each candidate must load (the
        store quarantines torn ``.npy`` files) *and* its recomputed
        digest must match the content-addressed key — so a corrupted
        column silently falls through to the previous checkpoint instead
        of poisoning the state.  Returns ``True`` when state was restored.
        """
        store = store or store_mod.Store()
        for seq, path in reversed(self._list_checkpoints(store)):
            key = f"stream/{self.name}/ckpt/{path.name[:-4]}"
            try:
                payload = np.asarray(store.get(key), dtype=float)
            except store_mod.StoreError:
                continue
            digest = hashlib.sha256(payload.tobytes()).hexdigest()[:12]
            if not path.name[:-4].endswith(digest):
                obs.counter("stream.checkpoint_rejects").inc()
                continue
            if self._restore(payload, seq):
                obs.counter("stream.recoveries").inc()
                return True
        return False

    def _restore(self, payload: np.ndarray, seq: int) -> bool:
        if payload.ndim != 1 or len(payload) < _HEADER:
            return False
        fmt, ckpt_seq, rows, batches, p = payload[:_HEADER]
        p = int(p)
        if fmt != CHECKPOINT_FORMAT or p != len(self.moment):
            # A checkpoint of a different spec (different design width)
            # cannot seed this accumulator — the caller rebuilds from the
            # dataset instead.
            return False
        if len(payload) != _HEADER + p + p * p:
            return False
        self.moment = payload[_HEADER : _HEADER + p].copy()
        self.gram = payload[_HEADER + p :].reshape(p, p).copy()
        self.rows = int(rows)
        self.batches = int(batches)
        self.seq = max(int(ckpt_seq), seq)
        return True
