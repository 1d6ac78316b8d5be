"""Runtime-selected kernels.

Three pieces of the join stack exist in two implementations: the
forward sweep that collects its pairs
(:func:`repro.core.sweep.forward_sweep_pairs_batched`), the distribute
phase of a partitioned plan, and the PQ join of two indexed inputs
(:func:`repro.core.pq_join.pq_join` over two R-trees).

* ``python`` — the pure-python code the repo has always used:
  :mod:`repro.core.sweep`'s one merge loop (every sweep entry point is
  an adapter over it) probing a :class:`~repro.core.sweep.ForwardSweep`
  list-scan or a :class:`~repro.core.sweep.StripedSweep`, the
  per-rectangle :func:`~repro.core.pbsm.distribute`, and
  :class:`~repro.core.sources.IndexSource` generators feeding that loop.
  Always available; the reference for correctness *and* accounting.
* ``numpy`` — vectorized kernels (:mod:`~repro.core.kernels.np_sweep`,
  :mod:`~repro.core.kernels.np_distribute`,
  :mod:`~repro.core.kernels.np_index`) that work on whole columns.
  Bit-identical to the python code in the pairs they emit (same
  pairs, same order), in op accounting (same ``cpu_ops``, same
  ``max_active_items``) and in simulated I/O (the same disk calls in
  the same order), so simulated numbers stay comparable across
  kernels; only wall-clock changes.

Every numpy entry point returns ``None`` for input outside its model.
For the sweep (batched or a group of tiles) that is a rectangle with an
inverted y-interval or a non-finite (NaN or infinite) coordinate.  For
the indexed join it is: an input that is not an ``RTree``,
``queue_memory_items`` asking for the external heap, a non-finite or
inverted rectangle, or a tree handle whose pages changed shape under
it.  Two quirks of the reference's queues are contract there, not bugs
to fix — on equal ``ylo`` a queued rectangle goes before a queued node
iff its push sequence number is ``<=`` the node's page id, and
equal-``ylo`` rectangles of different open leaves leave in push order;
see :mod:`~repro.core.kernels.np_index`.

Where the python code still runs:

* The core entry points take a kernel name —
  :func:`sweep_pairs_batched`, :func:`~repro.core.pq_join.pq_join`,
  the :data:`~repro.core.planner.STRATEGIES` rows and through them the
  paper runner.  ``"numpy"`` / ``"python"`` are explicit; ``"auto"`` is
  numpy unless the ``REPRO_KERNEL`` environment variable says
  ``python``, which never overrides an explicit choice.  Under
  ``"numpy"`` an input the kernel declines runs the reference, with
  identical results.
* The serving engine (:mod:`repro.engine`) has no kernel choice: it
  always runs numpy, passing ``kernel="numpy"`` to a strategy row, so
  ``REPRO_KERNEL`` does not reach it.  Its catalog refuses the input
  the kernels decline at ``register`` (non-finite or inverted
  rectangles), and a tile kernel that declines anyway raises instead
  of falling back.  The python bodies of its tile sweep
  (:func:`repro.core.pbsm.sweep_tile`) and distribute
  (:func:`repro.core.pbsm.distribute`) are the references the tests
  hold it to.
"""

from __future__ import annotations

import os

#: Every acceptable kernel *request*; resolution maps "auto" onto one
#: of the two implementations.
KERNEL_NAMES = ("auto", "numpy", "python")

#: Environment override for ``"auto"`` resolution only.
KERNEL_ENV_VAR = "REPRO_KERNEL"

def resolve_kernel(name: str) -> str:
    """Map a kernel request onto ``"numpy"`` or ``"python"``.

    ``"auto"`` resolves to numpy unless ``REPRO_KERNEL`` says
    ``python``; an explicit request is returned as it is.
    """
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"kernel must be one of {KERNEL_NAMES}, got {name!r}"
        )
    if name == "auto":
        forced = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
        return "python" if forced == "python" else "numpy"
    return name


def sweep_pairs_batched(kernel: str, rects_a, rects_b, env,
                        presorted: bool = False):
    """Dispatch the batched forward sweep to the named kernel.

    The rect-list-level entry point (the tile tasks use the columnar
    entry points in :mod:`np_sweep` directly, skipping Rect boxing).
    Returns ``(pairs, stats)`` exactly like
    :func:`~repro.core.sweep.forward_sweep_pairs_batched`.
    """
    if kernel == "numpy":
        from repro.core.kernels import np_sweep

        out = np_sweep.sweep_pairs_batched(rects_a, rects_b, env,
                                           presorted=presorted)
        if out is not None:
            return out
        # Inputs outside the vectorized kernel's model (e.g. inverted
        # y-intervals): identical results via the reference kernel.
    from repro.core.sweep import forward_sweep_pairs_batched

    return forward_sweep_pairs_batched(rects_a, rects_b, env,
                                       presorted=presorted)
