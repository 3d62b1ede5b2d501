"""Incremental (streaming) truncated singular value decomposition.

The enabling kernel of the paper's I-mrDMD is an *incremental SVD update*:
after an initial truncated SVD of the level-1 snapshot matrix has been
computed, newly arriving snapshot columns are folded into the factors
without touching the original data (Sec. III-A-1, reference [46]:
Kuehl, Fischer, Hinze & Rung, "An incremental singular value decomposition
approach for large-scale spatially parallel & distributed but temporally
serial data", CPC 2024).

The update follows Brand's additive modification scheme specialised to
column (snapshot) appends:

.. math::

    X = U \\Sigma V^H,\\qquad
    [X\\;\\; C] = \\begin{bmatrix} U & J \\end{bmatrix}
    \\begin{bmatrix} \\Sigma & U^H C \\\\ 0 & K \\end{bmatrix}
    \\begin{bmatrix} V & 0 \\\\ 0 & I \\end{bmatrix}^H

where ``J K = (I - U U^H) C`` is a thin QR of the out-of-subspace residual.
The small ``(q + c) x (q + c)`` core matrix is re-diagonalised with a dense
SVD and the factors are rotated and re-truncated.

**Cost.**  The left factors and singular values are updated in
``O(P (q + c)^2)`` per call.  The right factor ``Vh`` has ``T`` columns
(one per snapshot folded in), so rotating it eagerly would cost an extra
``O(q^2 T)`` *per update* — ``O(T^2)`` summed over a stream, which is
exactly the degradation Table I and Fig. 9 rule out.  :meth:`IncrementalSVD.update`
therefore never touches ``Vh``: each update appends its small ``(r, q)``
core rotation and ``(r, c)`` new-column block to a pending list, and the
full ``Vh`` is materialised only when a caller actually asks for it
(:attr:`~IncrementalSVD.vh`, :meth:`~IncrementalSVD.factors`,
:meth:`~IncrementalSVD.to_dict`, :meth:`~IncrementalSVD.add_rows`).
Materialisation replays the pending rotations in their original order with
the exact matrix products eager per-update rotation would have issued, so
the result is bit-for-bit identical to rotating after every update (or to
reading :attr:`~IncrementalSVD.vh` after every update) — it just pays the
``O(q^2 T)`` once per access instead of once per update.

The "spatially parallel / temporally serial" structure of the reference
means the row blocks of ``U`` can be updated independently once the small
core SVD is known (see :func:`blockwise_rotate`); the lazy right factor is
the "temporally serial" half of the same argument — new snapshots never
force a pass over old ones.

"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import OBS
from ..util.timer import now
from .svht import svht_rank

__all__ = ["IncrementalSVD", "ISVDState", "blockwise_rotate"]


@dataclass
class ISVDState:
    """Immutable snapshot of the factor state ``(U, s, Vh)``.

    ``u`` has shape ``(P, q)``, ``s`` shape ``(q,)`` (non-increasing) and
    ``vh`` shape ``(q, T)`` where ``T`` is the number of columns folded in
    so far.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.size)

    @property
    def n_rows(self) -> int:
        return int(self.u.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.vh.shape[1])

    def reconstruct(self) -> np.ndarray:
        """Dense reconstruction ``U diag(s) Vh`` (for testing / diagnostics)."""
        return (self.u * self.s[None, :]) @ self.vh


def blockwise_rotate(u_blocks: list[np.ndarray], rotation: np.ndarray) -> list[np.ndarray]:
    """Apply the core rotation to row blocks of the basis independently.

    This is the "spatially parallel" half of the reference algorithm: each
    distributed row block ``U_b`` is updated as ``U_b @ rotation`` with no
    communication beyond the (tiny) shared rotation matrix.
    """
    return [np.asarray(block) @ rotation for block in u_blocks]


class IncrementalSVD:
    """Rank-``q`` truncated SVD maintained under streaming column appends.

    Parameters
    ----------
    rank:
        Maximum retained rank ``q``.  ``None`` lets the SVHT rule decide at
        every step (bounded by ``max_rank_cap``).
    use_svht:
        When ``True`` (default) re-truncate with the Gavish--Donoho
        threshold after every update, mirroring the batch DMD path.
    max_rank_cap:
        Absolute upper bound on the retained rank, protecting against
        unbounded growth when SVHT keeps everything.
    reorthogonalize_every:
        Left-basis orthogonality degrades slowly as updates accumulate;
        every this-many updates (counting both :meth:`update` and
        :meth:`add_rows` calls) a thin QR re-orthogonalisation is applied.
        ``0`` disables it.
    dtype:
        Working dtype (default ``float64``).

    Notes
    -----
    The class never stores the raw data matrix: memory is
    ``O(P q + q T)``, which is what makes week-scale environment logs
    tractable (terabytes of raw samples vs megabytes of factors).
    """

    def __init__(
        self,
        rank: int | None = None,
        *,
        use_svht: bool = True,
        max_rank_cap: int = 512,
        reorthogonalize_every: int = 16,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if rank is not None and rank < 1:
            raise ValueError(f"rank must be >= 1 or None, got {rank!r}")
        if max_rank_cap < 1:
            raise ValueError("max_rank_cap must be >= 1")
        if reorthogonalize_every < 0:
            raise ValueError("reorthogonalize_every must be >= 0")
        self.rank = rank
        self.use_svht = use_svht
        self.max_rank_cap = int(max_rank_cap)
        self.reorthogonalize_every = int(reorthogonalize_every)
        self.dtype = np.dtype(dtype)
        self._u: np.ndarray | None = None
        self._s: np.ndarray | None = None
        self._vh: np.ndarray | None = None
        # Right-factor rotations not yet applied to ``_vh``, oldest first.
        # Ops are ("extend", R, B): Vh <- [R @ Vh, B], or ("rotate", M):
        # Vh <- M @ Vh (re-orthogonalisation).
        self._pending_vh_ops: list[tuple] = []
        # Ops issued by the most recent update()/add_rows() call, for
        # callers that maintain products against Vh incrementally (the
        # I-mrDMD level-1 cross product) without materialising it.
        self._last_update_ops: list[tuple] = []
        self._n_cols_seen = 0
        self._n_updates = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def initialized(self) -> bool:
        """Whether :meth:`initialize` (or the first update) has run."""
        return self._u is not None

    @property
    def state(self) -> ISVDState:
        """Current factors as an :class:`ISVDState` (copies are not made)."""
        self._require_initialized()
        self._materialize_vh()
        return ISVDState(u=self._u, s=self._s, vh=self._vh)

    @property
    def pending_rotations(self) -> int:
        """Number of right-factor ops queued but not yet applied to ``Vh``."""
        return len(self._pending_vh_ops)

    @property
    def last_update_ops(self) -> list[tuple]:
        """Right-factor ops issued by the most recent update, oldest first.

        Each op is either ``("extend", R, B)`` — ``Vh <- [R @ Vh, B]`` with
        ``R`` of shape ``(r, q_prev)`` and ``B`` of shape ``(r, c)`` — or
        ``("rotate", M)`` — ``Vh <- M @ Vh``.  Consumers that maintain a
        product ``G = A @ Vh^H`` apply ``G <- G @ R^H + A_new @ B^H`` and
        ``G <- G @ M^H`` respectively, staying ``O(P q^2)`` per update
        instead of touching the ``(q, T)`` factor.
        """
        return list(self._last_update_ops)

    @property
    def current_rank(self) -> int:
        self._require_initialized()
        return int(self._s.size)

    @property
    def n_columns(self) -> int:
        """Total number of snapshot columns folded in so far."""
        return self._n_cols_seen

    def _require_initialized(self) -> None:
        if not self.initialized:
            raise RuntimeError("IncrementalSVD has not been initialized with data yet")

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _truncation_rank(self, s: np.ndarray, shape: tuple[int, int]) -> int:
        if self.use_svht:
            decision = svht_rank(s, shape, max_rank=self.rank or self.max_rank_cap)
            r = decision.rank
        else:
            r = s.size if self.rank is None else min(self.rank, s.size)
        return int(min(max(r, 1), self.max_rank_cap, s.size)) if s.size else 0

    def initialize(self, data: np.ndarray) -> "IncrementalSVD":
        """Batch-initialise the factors from an initial ``(P, T0)`` block."""
        data = np.asarray(data, dtype=self.dtype)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape!r}")
        if data.shape[1] < 1:
            raise ValueError("initial block must contain at least one column")
        t_start = now() if OBS.enabled else 0.0
        u, s, vh = np.linalg.svd(data, full_matrices=False)
        r = self._truncation_rank(s, data.shape)
        self._u = np.ascontiguousarray(u[:, :r])
        self._s = np.ascontiguousarray(s[:r])
        self._vh = np.ascontiguousarray(vh[:r, :])
        self._pending_vh_ops = []
        self._last_update_ops = []
        self._n_cols_seen = data.shape[1]
        self._n_updates = 0
        if OBS.enabled:
            OBS.record("core.isvd.initialize", now() - t_start,
                       cols=int(data.shape[1]), rank=int(r))
            OBS.gauge("core.isvd.rank", int(r))
        return self

    def update(self, new_columns: np.ndarray) -> "IncrementalSVD":
        """Fold ``(P, c)`` new snapshot columns into the factors.

        The first call on an uninitialised object falls back to
        :meth:`initialize`.
        """
        c_block = np.asarray(new_columns, dtype=self.dtype)
        if c_block.ndim == 1:
            c_block = c_block[:, None]
        if c_block.ndim != 2:
            raise ValueError(f"new_columns must be 1-D or 2-D, got shape {c_block.shape!r}")
        if not self.initialized:
            return self.initialize(c_block)
        if c_block.shape[0] != self._u.shape[0]:
            raise ValueError(
                f"row-count mismatch: factors have {self._u.shape[0]} rows, "
                f"update has {c_block.shape[0]}"
            )
        if c_block.shape[1] == 0:
            self._last_update_ops = []
            return self

        t_start = now() if OBS.enabled else 0.0
        u, s = self._u, self._s
        q = s.size
        c = c_block.shape[1]

        # Project onto the current subspace and extract the residual.
        l_proj = u.conj().T @ c_block              # (q, c)
        residual = c_block - u @ l_proj            # (P, c)

        # Thin QR of the residual: J is (P, k_cols), K is (k_cols, c) with
        # k_cols = min(P, c) -- the update block may be wider than the state
        # dimension, in which case the residual subspace saturates at P.
        j, k = np.linalg.qr(residual)
        k_cols = j.shape[1]

        # Core matrix: [[diag(s), L], [0, K]] of shape (q + k_cols, q + c).
        core = np.zeros((q + k_cols, q + c), dtype=self.dtype)
        core[:q, :q] = np.diag(s)
        core[:q, q:] = l_proj
        core[q:, q:] = k

        cu, cs, cvh = np.linalg.svd(core, full_matrices=False)

        total_cols = self._n_cols_seen + c
        r = self._truncation_rank(cs, (u.shape[0], total_cols))
        r = min(r, cs.size)

        # Rotate the left basis:  [U J] @ cu  (spatially parallel step).
        new_u = np.hstack([u, j]) @ cu[:, :r]
        # The right factor becomes [cvh[:r, :q] @ Vh, cvh[:r, q:]] — a
        # small rotation plus an appended identity-block image.  Queue it
        # instead of touching the (q, T) factor (temporally serial step).
        ops: list[tuple] = [("extend", cvh[:r, :q], cvh[:r, q:])]
        self._pending_vh_ops.append(ops[0])

        self._u = new_u
        self._s = np.ascontiguousarray(cs[:r])
        self._n_cols_seen = total_cols
        self._n_updates += 1

        if self.reorthogonalize_every and self._n_updates % self.reorthogonalize_every == 0:
            ops.append(self._reorthogonalize())
            OBS.inc("core.isvd.reorth")
        self._last_update_ops = ops
        if OBS.enabled:
            OBS.record("core.isvd.update", now() - t_start, cols=int(c), rank=int(r))
            OBS.gauge("core.isvd.rank", int(r))
        return self

    def partial_fit(self, new_columns: np.ndarray) -> "IncrementalSVD":
        """Alias of :meth:`update` matching the scikit-learn streaming idiom."""
        return self.update(new_columns)

    def add_rows(self, new_rows: np.ndarray) -> "IncrementalSVD":
        """Fold ``(r, T)`` new *sensor rows* into the factors.

        This is the building block for the paper's stated future-work
        extension ("extend the I-mrDMD approach to add new entire time
        series or sensor measurements incrementally"): given
        ``X = U diag(s) Vh`` and new rows ``R`` covering the same ``T``
        columns, the stacked matrix factors as::

            [[X], [R]] = [[U, 0], [0, I]] @ [[diag(s)], [R V]] @ Vh

        so only the small ``(q + r) x q`` core needs a dense SVD.  The
        update costs ``O((q + r) q^2 + r T q)`` — it genuinely reads every
        retained column (``R V``), so this call materialises a lazily
        rotated ``Vh`` first — and re-truncates with the same rank rule as
        column updates.  It also participates in the same
        ``reorthogonalize_every`` schedule as :meth:`update` (the basis
        drifts identically whichever direction the factors grow in).
        """
        rows = np.asarray(new_rows, dtype=self.dtype)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError(f"new_rows must be 1-D or 2-D, got shape {rows.shape!r}")
        self._require_initialized()
        if rows.shape[1] != self.n_columns:
            raise ValueError(
                f"column-count mismatch: factors cover {self.n_columns} columns, "
                f"new rows have {rows.shape[1]}"
            )
        if rows.shape[0] == 0:
            self._last_update_ops = []
            return self
        if not np.any(rows):
            # Fast path for the elastic-topology case: sensors that join a
            # live stream with no back-filled history contribute all-zero
            # rows, and ``[[X], [0]]`` factors *exactly* as
            # ``[[U], [0]] diag(s) Vh`` — the singular values, the right
            # factor (and its pending lazy rotations) and the cross
            # products against ``Vh`` are all unchanged, so nothing is
            # materialised and the call is O(r q), independent of the
            # stream length.  The retained rank is left as-is (the SVHT
            # rule re-evaluates on the next column update anyway).
            self._u = np.vstack(
                [self._u, np.zeros((rows.shape[0], self._u.shape[1]), dtype=self.dtype)]
            )
            self._last_update_ops = []
            return self

        t_start = now() if OBS.enabled else 0.0
        self._materialize_vh()
        u, s, vh = self._u, self._s, self._vh
        q = s.size
        r = rows.shape[0]
        core = np.vstack([np.diag(s), rows @ vh.conj().T])   # (q + r, q)
        cu, cs, cvh = np.linalg.svd(core, full_matrices=False)

        total_rows = u.shape[0] + r
        rank = self._truncation_rank(cs, (total_rows, self._n_cols_seen))
        rank = min(rank, cs.size)

        new_u = np.zeros((total_rows, cu.shape[0]), dtype=self.dtype)
        new_u[: u.shape[0], :q] = u
        new_u[u.shape[0]:, q:] = np.eye(r, dtype=self.dtype)
        self._u = new_u @ cu[:, :rank]
        self._s = np.ascontiguousarray(cs[:rank])
        self._vh = cvh[:rank, :] @ vh
        self._n_updates += 1

        ops: list[tuple] = [("rotate", cvh[:rank, :])]
        if self.reorthogonalize_every and self._n_updates % self.reorthogonalize_every == 0:
            ops.append(self._reorthogonalize())
            OBS.inc("core.isvd.reorth")
        self._last_update_ops = ops
        if OBS.enabled:
            OBS.record("core.isvd.add_rows", now() - t_start,
                       rows=int(r), rank=int(rank))
            OBS.gauge("core.isvd.rank", int(rank))
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise configuration + factor state to plain containers.

        The returned dict round-trips exactly through
        :func:`repro.io.storage.save_state` / ``load_state``:
        ``from_dict(to_dict())`` yields an object whose subsequent
        :meth:`update` calls are bit-for-bit identical to the original's
        (including the re-orthogonalisation schedule, which depends on the
        update counter).

        Accessing the state materialises any pending lazy rotations, so
        the serialised ``vh`` is always the fully rotated factor.
        """
        self._materialize_vh()
        return {
            "rank": self.rank,
            "use_svht": self.use_svht,
            "max_rank_cap": self.max_rank_cap,
            "reorthogonalize_every": self.reorthogonalize_every,
            "dtype": self.dtype.name,
            "u": None if self._u is None else self._u,
            "s": None if self._s is None else self._s,
            "vh": None if self._vh is None else self._vh,
            "n_cols_seen": self._n_cols_seen,
            "n_updates": self._n_updates,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "IncrementalSVD":
        """Rebuild an :class:`IncrementalSVD` from :meth:`to_dict` output.

        Older dicts carry the retired ``lazy_rotation`` flag; it is ignored.
        """
        obj = cls(
            rank=state["rank"],
            use_svht=bool(state["use_svht"]),
            max_rank_cap=int(state["max_rank_cap"]),
            reorthogonalize_every=int(state["reorthogonalize_every"]),
            dtype=np.dtype(state["dtype"]),
        )
        if state["u"] is not None:
            obj._u = np.asarray(state["u"], dtype=obj.dtype)
            obj._s = np.asarray(state["s"], dtype=obj.dtype)
            obj._vh = np.asarray(state["vh"], dtype=obj.dtype)
        obj._n_cols_seen = int(state["n_cols_seen"])
        obj._n_updates = int(state["n_updates"])
        return obj

    def _reorthogonalize(self) -> tuple:
        """Restore left-basis orthogonality via a thin QR + core re-SVD.

        The left factors are fixed immediately (they are what degrades and
        what every consumer reads each update); the matching right-factor
        rotation is queued like any other op and returned so the caller
        can expose it through :attr:`last_update_ops`.
        """
        qmat, rmat = np.linalg.qr(self._u)
        ru, rs, rvh = np.linalg.svd(rmat * self._s[None, :], full_matrices=False)
        self._u = qmat @ ru
        self._s = rs
        op = ("rotate", rvh)
        self._pending_vh_ops.append(op)
        return op

    def _materialize_vh(self) -> None:
        """Apply queued right-factor ops to ``Vh``, oldest first.

        The replay issues exactly the matrix products eager per-update
        rotation would have issued, in the same order, so the materialised
        factor is bit-for-bit identical to the eager path no matter when
        (or how often) materialisation happens.
        """
        if not self._pending_vh_ops:
            return
        n_pending = len(self._pending_vh_ops)
        t_start = now() if OBS.enabled else 0.0
        vh = self._vh
        for op in self._pending_vh_ops:
            if op[0] == "extend":
                rotation, block = op[1], op[2]
                n_old = vh.shape[1]
                new_vh = np.empty(
                    (rotation.shape[0], n_old + block.shape[1]), dtype=self.dtype
                )
                np.matmul(rotation, vh, out=new_vh[:, :n_old])
                new_vh[:, n_old:] = block
                vh = new_vh
            else:
                vh = op[1] @ vh
        self._vh = vh
        self._pending_vh_ops = []
        if OBS.enabled:
            OBS.record("core.isvd.rotation", now() - t_start, pending=n_pending)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def u(self) -> np.ndarray:
        self._require_initialized()
        return self._u

    @property
    def s(self) -> np.ndarray:
        self._require_initialized()
        return self._s

    @property
    def vh(self) -> np.ndarray:
        """The ``(q, T)`` right factor (materialises pending rotations)."""
        self._require_initialized()
        self._materialize_vh()
        return self._vh

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(U, s, Vh)`` suitable for ``compute_dmd(svd_factors=...)``.

        Materialises pending lazy rotations: this is the full-``Vh``
        access path, costing ``O(q^2 T)`` when rotations are outstanding.
        Streaming consumers that only need products against ``Vh`` should
        track :attr:`last_update_ops` instead (see
        :func:`repro.core.dmd.compute_dmd_projected`).
        """
        self._require_initialized()
        self._materialize_vh()
        return self._u, self._s, self._vh

    def reconstruction_error(self, data: np.ndarray) -> float:
        """Frobenius-norm error ``||data - U S Vh||_F`` against a reference block."""
        self._require_initialized()
        self._materialize_vh()
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != (self._u.shape[0], self._vh.shape[1]):
            raise ValueError(
                f"reference shape {data.shape} does not match factor shape "
                f"({self._u.shape[0]}, {self._vh.shape[1]})"
            )
        approx = (self._u * self._s[None, :]) @ self._vh
        return float(np.linalg.norm(data - approx))
