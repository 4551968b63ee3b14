"""Array-backend namespace shim: one kernel, numpy/CuPy/torch arrays.

The round kernel (:func:`repro.core.rounds.approximation_step_block`), the
tensor fault programs (:mod:`repro.net.adversary`) and the vectorised block
engine (:mod:`repro.sim.ndbatch`) were written against numpy.  Their actual
array surface is small — ``asarray``/``sort``/``argsort``/``where``/masked
reductions plus the uint64 PRF arithmetic — and the array-API convergence
means the same call spelling works on CuPy (and, for the float kernel, on
torch).  This module makes that explicit: a block resolves ONE
:class:`ArrayNamespace` up front (:func:`get_namespace`), threads it through
every kernel call, and library code that receives arrays of unknown origin
recovers the governing namespace from the arrays themselves
(:func:`array_namespace`) — the duck-typed pattern of modern array-consumer
libraries.

Selection is explicit, never sniffed: the ``backend=`` kwarg wins, then the
``REPRO_ARRAY_BACKEND`` environment variable, then the numpy default.  The
optional backends are imported lazily and are *not* dependencies — an
unimportable or unknown selection raises :class:`ArrayBackendError` (a
``ValueError``, same family as
:class:`~repro.sim.engine.EngineCapabilityError`) naming the fix, and so
does any operation the selected backend lacks.  Known capability cliff:
torch has no practical uint64 arithmetic, so the counter-based PRF tensors
(rank keys, value/delay draws) refuse the torch backend loudly
(:attr:`ArrayNamespace.supports_uint64`) instead of computing wrong keys.

The dtype policy rides along: a namespace carries the block's float dtype
(``float64`` default, opt-in ``float32`` via kwarg or ``REPRO_ARRAY_DTYPE``)
as :attr:`ArrayNamespace.float_dtype`, so kernels never hard-code
``np.float64``.  The float64 default is bit-identical to the pre-shim code:
for the numpy namespace every ``xp.<op>`` *is* the numpy function, and the
differential grids pin that (``tests/core/test_backend.py``).
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Optional, Tuple

__all__ = [
    "ENV_BACKEND",
    "ENV_DTYPE",
    "FLOAT_DTYPES",
    "KNOWN_BACKENDS",
    "ArrayBackendError",
    "ArrayNamespace",
    "array_namespace",
    "backend_available",
    "get_namespace",
]

#: Environment variable selecting the array backend (kwarg overrides it).
ENV_BACKEND = "REPRO_ARRAY_BACKEND"
#: Environment variable selecting the block float dtype (kwarg overrides it).
ENV_DTYPE = "REPRO_ARRAY_DTYPE"

#: Backends the shim knows how to resolve.  numpy is the default and the
#: only hard dependency; the others are imported lazily on request.
KNOWN_BACKENDS = ("numpy", "cupy", "torch")

#: Float dtypes a block may run under.  float64 (default) is bit-identical
#: to the pre-shim engine; float32 halves block memory at ~1e-6 relative
#: tolerance on the differential grids.
FLOAT_DTYPES = ("float64", "float32")


class ArrayBackendError(ValueError):
    """An array backend is unknown, unimportable, or lacks a required op.

    Subclasses :class:`ValueError` like
    :class:`~repro.sim.engine.EngineCapabilityError`, so pre-existing
    ``except ValueError`` call sites keep working.
    """


#: Per-backend operation aliases papering over trivial naming differences.
#: Anything not covered here and absent from the module raises
#: :class:`ArrayBackendError` at lookup time — a loud capability error
#: instead of a silent AttributeError deep inside a kernel.
_OP_ALIASES: Dict[str, Dict[str, str]] = {
    "torch": {"copy": "clone", "asarray": "as_tensor"},
}


def _torch_adapter(op: str, torch):
    """Numpy-signature wrappers for torch ops whose return shape differs.

    torch's ``sort``/``argsort`` take ``dim=`` and return (values, indices)
    namedtuples; the kernel calls them numpy-style.  Everything else
    forwards unwrapped (torch accepts ``axis=`` as a ``dim`` alias on its
    reductions).
    """
    if op == "sort":

        def sort(values, axis=-1):
            return torch.sort(values, dim=axis).values

        return sort
    if op == "argsort":

        def argsort(values, axis=-1, kind=None):
            return torch.argsort(values, dim=axis, stable=kind == "stable")

        return argsort
    return None

#: Backends whose uint64 arithmetic matches numpy's modular semantics.  The
#: counter-based PRF tensors (MurmurHash3 finalizer over uint64) require it.
_UINT64_BACKENDS = frozenset({"numpy", "cupy"})


class ArrayNamespace:
    """One resolved array module plus the block's float-dtype policy.

    Attribute access forwards to the wrapped module (``xp.sort`` is
    ``numpy.sort`` on the numpy backend — the float64 default path is the
    pre-shim code, bit for bit), with per-backend aliases for trivially
    renamed operations and an :class:`ArrayBackendError` naming backend and
    operation when the backend lacks one.
    """

    def __init__(self, module, name: str, dtype: str = "float64") -> None:
        if dtype not in FLOAT_DTYPES:
            raise ArrayBackendError(
                f"unknown array dtype {dtype!r}; supported dtypes: "
                f"{', '.join(FLOAT_DTYPES)} (selected via the dtype kwarg or "
                f"{ENV_DTYPE})"
            )
        self._module = module
        self.name = name
        self.dtype_name = dtype

    @property
    def float_dtype(self):
        """The block's float dtype object (``xp.float64``/``xp.float32``)."""
        return self._resolve(self.dtype_name)

    @property
    def supports_uint64(self) -> bool:
        """Whether the backend's uint64 arithmetic can carry the PRF tensors."""
        return self.name in _UINT64_BACKENDS

    def __getattr__(self, op: str):
        if op.startswith("_"):
            # Dunder/private probes (copy.copy, pickling, IPython) must see a
            # plain AttributeError, not a capability error.
            raise AttributeError(op)
        resolved = self._resolve(op)
        # Resolved once per namespace: later lookups of ``op`` are plain
        # instance attributes and never reach __getattr__ again.
        self.__dict__[op] = resolved
        return resolved

    def _resolve(self, op: str):
        if self.name == "torch":
            adapted = _torch_adapter(op, self._module)
            if adapted is not None:
                return adapted
        target = _OP_ALIASES.get(self.name, {}).get(op, op)
        attr = getattr(self._module, target, None)
        if attr is None:
            raise ArrayBackendError(
                f"array backend {self.name!r} has no operation {op!r}; the "
                f"kernel requires it — run on the numpy default (unset "
                f"{ENV_BACKEND}) or a backend providing it"
            )
        return attr

    def require_uint64(self, what: str) -> None:
        """Raise loudly when the backend cannot carry uint64 PRF tensors."""
        if not self.supports_uint64:
            raise ArrayBackendError(
                f"{what} requires uint64 integer tensors (counter-based PRF "
                f"rank keys), which the {self.name!r} backend does not "
                f"support; use the numpy default or the cupy backend"
            )

    def to_numpy(self, array):
        """Export an array of this backend to a host numpy array.

        Identity for numpy, device→host copy for cupy, detach+cpu for torch.
        Used at the result-assembly boundary, where the per-execution Python
        objects are built from host data regardless of where the block ran.
        """
        if self.name == "numpy":
            return array
        if self.name == "cupy":
            return array.get()
        if self.name == "torch":
            return array.detach().cpu().numpy()
        return self._resolve("asarray")(array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayNamespace({self.name}, dtype={self.dtype_name})"


_NAMESPACE_CACHE: Dict[Tuple[str, str], ArrayNamespace] = {}


def _selected(value: Optional[str], env: str, default: str) -> str:
    chosen = value if value is not None else os.environ.get(env)
    if chosen is None or not str(chosen).strip():
        return default
    return str(chosen).strip().lower()


def get_namespace(
    backend: Optional[str] = None, dtype: Optional[str] = None
) -> ArrayNamespace:
    """Resolve the array namespace for one block (numpy float64 default).

    ``backend``/``dtype`` kwargs win over the ``REPRO_ARRAY_BACKEND`` /
    ``REPRO_ARRAY_DTYPE`` environment variables, which win over the numpy
    float64 default.  Unknown names, unimportable backends and unsupported
    dtypes raise :class:`ArrayBackendError` with the fix in the message.
    Resolved namespaces are cached per (backend, dtype) — the shim is
    resolved once per block, not once per op.
    """
    name = _selected(backend, ENV_BACKEND, "numpy")
    dtype_name = _selected(dtype, ENV_DTYPE, "float64")
    if name not in KNOWN_BACKENDS:
        raise ArrayBackendError(
            f"unknown array backend {name!r}; known backends: "
            f"{', '.join(KNOWN_BACKENDS)} (selected via the backend kwarg or "
            f"{ENV_BACKEND})"
        )
    if dtype_name not in FLOAT_DTYPES:
        raise ArrayBackendError(
            f"unknown array dtype {dtype_name!r}; supported dtypes: "
            f"{', '.join(FLOAT_DTYPES)} (selected via the dtype kwarg or "
            f"{ENV_DTYPE})"
        )
    key = (name, dtype_name)
    cached = _NAMESPACE_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        module = importlib.import_module(name)
    except ImportError as error:
        raise ArrayBackendError(
            f"array backend {name!r} is not importable ({error}); install it "
            f"or select the numpy default (unset {ENV_BACKEND})"
        ) from None
    namespace = ArrayNamespace(module, name, dtype_name)
    _NAMESPACE_CACHE[key] = namespace
    return namespace


def array_namespace(*arrays, dtype: Optional[str] = None) -> ArrayNamespace:
    """The namespace governing the given arrays (duck-typed, numpy default).

    Library code that receives arrays of unknown origin — the tensor fault
    programs, whose signatures predate the shim — recovers the namespace
    from the arrays' defining module instead of growing an ``xp`` parameter:
    a cupy/torch array routes every subsequent op to its own backend, plain
    numpy arrays (and Python sequences) to numpy.  The explicit selection
    env vars do NOT apply here — the arrays already chose.
    """
    for array in arrays:
        module = type(array).__module__.partition(".")[0]
        if module in ("cupy", "torch"):
            return get_namespace(module, dtype=dtype)
    return get_namespace("numpy", dtype=dtype)


def backend_available(backend: str) -> bool:
    """Whether ``backend`` resolves on this interpreter (no raise)."""
    try:
        get_namespace(backend)
    except ArrayBackendError:
        return False
    return True
