"""Index-hash registry for PHT-style table lookups.

The paper's reverse engineering (§6.3) found byte-granular indexing and
a power-of-two table on Intel parts, consistent with a plain modulo.
Recent Arm reverse-engineering work ("Dissecting Conditional Branch
Predictors of Apple Firestorm and Qualcomm Oryon", arXiv:2411.13900;
"Branch Target Buffer Reverse Engineering on Arm", arXiv:2412.05413)
shows other vendors *fold* upper PC/history bits into the index instead,
so equal low-order bits no longer guarantee a collision.

This module is the single source of truth for those index functions.
Every PHT index an engine computes for an attacker or block branch goes
through it: the component predictors (:mod:`repro.bpu.bimodal`,
:mod:`repro.bpu.gshare`), the vectorised block compiler
(:mod:`repro.core.randomizer`), the batch probe and calibration engines
(:mod:`repro.core.batch_probe`, :mod:`repro.core.calibration_batch`,
and through the latter the manycore campaign engine), the numpy
kernel's block summary and the fuzzer's hypothesis simulators
(:mod:`repro.fuzz.infer`) all call :func:`index_function` /
:func:`apply_hash`.  The one compiled mirror, the cffi kernel, takes
the hash as an integer code (``repro.kernels.cffi_backend.HASH_CODES``)
and is pinned to these functions by ``tests/test_kernels.py``.  So a
modelled hash can never drift between the oracle, the fast engines and
the inference engine, and a preset's hash never forces a slower path.

Every hash works elementwise on both Python ints and numpy integer
arrays, and reduces into ``range(n_entries)``.

* ``"mod"`` — ``mixed % n``: the Intel model, bit-compatible with every
  engine that predates this module.  For the power-of-two tables every
  preset uses it is one AND, several times cheaper than the integer
  modulo on the ~1e5-address block arrays the kernels reduce.
* ``"fold"`` — ``(mixed ^ (mixed >> s)) % n`` with ``s = log2(n)``: one
  XOR-fold of the next ``s`` address bits before the modulo, the
  Arm-flavoured model.  Two addresses that agree in the low ``s`` bits
  but differ above them *mod*-collide yet *fold*-differ — exactly the
  signature the fuzzer uses to tell the two families apart.

Structures the scalar reference indexes with a plain modulo whatever
the preset — noise-branch bimodal updates, the selector, the
identification table, and partition confinement — stay plain modulo in
every engine too.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = [
    "INDEX_HASHES",
    "apply_hash",
    "fold_history",
    "history_fold_width",
    "index_function",
    "validate_hash",
]


def _mod(mixed, n_entries: int):
    if n_entries & (n_entries - 1) == 0:
        return mixed & (n_entries - 1)
    return mixed % n_entries


def _fold(mixed, n_entries: int):
    shift = history_fold_width(n_entries)
    return _mod(mixed ^ (mixed >> shift), n_entries)


#: Registry of index hashes; new entries must work on scalars *and*
#: numpy arrays and return values in ``range(n_entries)``.
INDEX_HASHES: Dict[str, Callable] = {
    "mod": _mod,
    "fold": _fold,
}


def validate_hash(name: str) -> str:
    """Return ``name`` if registered, else a ``KeyError`` naming the options."""
    if name not in INDEX_HASHES:
        raise KeyError(
            f"unknown index hash {name!r}; valid hashes: "
            + ", ".join(sorted(INDEX_HASHES))
        )
    return name


def index_function(name: str) -> Callable:
    """The index function ``f(mixed, n_entries)`` registered as ``name``.

    Hot loops resolve it once and call it per branch; see
    :func:`apply_hash` for the contract.
    """
    return INDEX_HASHES[validate_hash(name)]


def apply_hash(name: str, mixed, n_entries: int):
    """Map a mixed address value into ``range(n_entries)`` under hash ``name``.

    ``mixed`` may be a Python int or a numpy integer array; the result
    has the same shape.
    """
    return index_function(name)(mixed, n_entries)


def history_fold_width(n_entries: int) -> int:
    """The table's index width in bits (floor log2) — the chunk size a
    longer global history folds down to before entering the index."""
    return max(1, int(n_entries).bit_length() - 1)


def fold_history(history, length: int, n_entries: int):
    """Fold an ``length``-bit history value to the table's index width.

    gshare XORs the global history into the PC before indexing, but a
    history longer than the index simply cannot fit: real predictors
    compress it with a circular XOR of index-width chunks (Michaud's
    *folded history*, the construction TAGE made standard).  Without
    the fold, history bits above the index width would be architecturally
    invisible — and the fuzzer could never recover a preset's history
    length past ``log2(table)``.  Identity when the history already
    fits (``length <= width``), which keeps every pre-zoo Sandy
    Bridge/Haswell behaviour bit-identical.

    Works elementwise on Python ints and numpy integer arrays.  Every
    engine that mixes history into a gshare index — the scalar
    predictor, the batch scan, the block compiler, the calibration
    closed form and the kernel backends — must call this (or replicate
    it exactly): ``tests/test_fuzz.py`` and the engine differentials
    pin them together.
    """
    width = history_fold_width(n_entries)
    if length <= width:
        return history
    mask = (1 << width) - 1
    folded = history & mask
    for chunk in range(width, length, width):
        folded = folded ^ ((history >> chunk) & mask)
    return folded
