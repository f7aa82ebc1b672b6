"""Kernel dispatch registry: one switch for every hot numeric kernel.

PRs 1-5 vectorized the trace path and fixed the parallel fan-out; what
remains of the campaign wall-clock is the *serial ceiling* of three
numpy kernels — the batched AES round pipeline, the second-order IIR
PDN recurrence, and the streaming-CPA accumulate.  The ``pdn`` kernel
covers the whole analogue chain from voltage in: besides the droop
recurrence it serves sensor sampling, the per-register-jitter latch of
:mod:`repro.core.waveform_bank` (ops ``sample_padded`` and
``sample_per_endpoint``), so ``pdn=numpy`` selects the numpy reference
for both.  Likewise the ``resample`` kernel serves the preprocessing
chain: besides the polyphase resampler (op ``upfirdn``) it runs the
correlation shift search of :mod:`repro.preprocess.align` (op
``estimate_shifts``).  This module is the single place that decides
which implementation of each kernel runs:

* ``numpy`` — the reference fast path that exists today.  Always
  available, and the ground truth every other backend is asserted
  bit-identical against.
* ``scipy`` — where a scipy implementation exists (the PDN integrator's
  ``lfilter`` form).  Optional; requesting it where scipy is absent or
  where no scipy form exists falls back to ``numpy``.
* ``native`` — compiled kernels (:mod:`repro.util.kernels_native`):
  numba ``@njit(cache=True)`` loops when numba is installed (the
  ``repro[native]`` extra), otherwise a small C library built once with
  the system compiler and loaded through ctypes.  Optional; requesting
  it when neither provider is available raises a structured
  :class:`KernelUnavailableError` naming the missing dependency.

Selection is driven by the ``REPRO_KERNELS`` environment variable or
the ``--kernels`` CLI/service knob.  A spec is either one mode for all
kernels (``auto`` | ``numpy`` | ``scipy`` | ``native``) or a per-kernel
map such as ``aes=native,pdn=scipy,cpa=numpy``.  ``auto`` (the default)
resolves each kernel to the fastest available backend: ``native`` if a
provider loads, else ``scipy`` where one exists, else ``numpy``.

The contract every backend must honour is the same one the existing
scipy path honours: **bit-identical outputs** on campaign inputs.  AES
and the hypothesis blocks are exact integer arithmetic; the PDN
recurrence evaluates the same three fused float64 operations per sample
in the same order on every backend (the native build disables FMA
contraction for exactly this reason); the native sampler draws each
Gaussian with numpy's own ziggurat, consuming the generator stream
exactly as ``Generator.normal`` does; the CPA sums are float64 sums of
integer-valued leakage/hypotheses, which are order-independent and
therefore exact (the same property :meth:`StreamingCPA.merge` already
relies on).  The campaign drivers mostly skip this op:
``StreamingCPA.update(x, table, classes=c)`` folds a block per class
and contracts it against the (C, K) table, and takes that route only
when a check in code proves every partial sum an integer below 2^53
(finite, integer-valued leakage and table, ``sum x**2`` and
``B * max t**2`` below 2^53); any other block is gathered and handed
to this op, so the sums are the same bits on either route.  The
native shift search cannot copy numpy's summation order, so it
certifies each row's decision with a forward-error bound that holds
for any order and hands every batch with an uncertified row to the
numpy reference: its shifts are the reference's.  The test
suite asserts exact equality across every available backend, and
``repro bench`` asserts it again before timing anything.

Dispatch happens at *call time* from module-level functions, so nothing
unpicklable (numba dispatchers, ctypes handles) is ever stored on
campaign objects: shard tasks, fork-once worker payloads and checkpoint
state pickle exactly as before, and every process-pool worker resolves
the same spec — :func:`configure` exports the active spec through the
environment so spawned workers inherit it too.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.util.errors import ReproError

__all__ = [
    "KERNEL_MODES",
    "KERNEL_NAMES",
    "KernelConfigError",
    "KernelUnavailableError",
    "active_backends",
    "available_backends",
    "backend_metadata",
    "configure",
    "describe",
    "dispatch",
    "invalidate_cache",
    "parse_spec",
    "register_backend",
    "use",
]

#: Environment variable consulted when no explicit spec is configured.
KERNELS_ENV = "REPRO_KERNELS"

#: The hot kernels behind the registry: the three original campaign
#: kernels plus the polyphase resampler of the preprocessing subsystem.
KERNEL_NAMES = ("aes", "pdn", "cpa", "resample")

#: Accepted selection modes (per kernel or for all kernels at once).
KERNEL_MODES = ("auto", "numpy", "scipy", "native")


class KernelConfigError(ReproError):
    """A kernel spec is malformed: unknown mode or kernel name."""


class KernelUnavailableError(ReproError):
    """A requested backend cannot be provided on this host.

    Raised when ``native`` is requested but no provider loads; the
    message names the missing dependency so the fix is actionable.
    """


def parse_spec(spec: Optional[str]) -> Dict[str, str]:
    """Parse a kernel spec into a ``{kernel: mode}`` map.

    Accepts a single mode (``"native"`` applies to all kernels) or a
    comma-separated per-kernel map (``"aes=native,pdn=scipy"``; kernels
    not named default to ``auto``).  ``None`` or ``""`` means ``auto``
    everywhere.

    Raises:
        KernelConfigError: on an unknown mode or kernel name, with the
            accepted values in the message.
    """
    modes = {kernel: "auto" for kernel in KERNEL_NAMES}
    if spec is None:
        return modes
    spec = spec.strip()
    if not spec:
        return modes
    if "=" not in spec:
        if spec not in KERNEL_MODES:
            raise KernelConfigError(
                "unknown kernels mode %r (expected one of %s, or a "
                "per-kernel map like aes=native,pdn=scipy)"
                % (spec, ", ".join(KERNEL_MODES))
            )
        return {kernel: spec for kernel in KERNEL_NAMES}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kernel, sep, mode = entry.partition("=")
        kernel = kernel.strip()
        mode = mode.strip()
        if not sep or kernel not in KERNEL_NAMES:
            raise KernelConfigError(
                "unknown kernel %r in kernels spec %r (expected "
                "KERNEL=MODE entries with kernels %s)"
                % (kernel, spec, ", ".join(KERNEL_NAMES))
            )
        if mode not in KERNEL_MODES:
            raise KernelConfigError(
                "unknown mode %r for kernel %r (expected one of %s)"
                % (mode, kernel, ", ".join(KERNEL_MODES))
            )
        modes[kernel] = mode
    return modes


# ----------------------------------------------------------------------
# Implementation registry
# ----------------------------------------------------------------------

#: ``(kernel, backend) -> {op_name: callable}``.  The ``numpy`` entries
#: are registered by the domain modules that own them (``aes/batch``,
#: ``attacks/models``, ``pdn/model``, ``core/waveform_bank``,
#: ``attacks/cpa``, ``preprocess/resample``, ``preprocess/align``) at
#: import time,
#: so the reference implementation and its registration can never
#: drift apart.  ``native`` ops live on the lazily loaded provider
#: instead (see :func:`dispatch`).
_IMPLS: Dict[Tuple[str, str], Dict[str, Callable]] = {}

#: The module(s) whose import registers each kernel's ops (the sensor
#: sampling ops are filed under ``pdn``).  Probing a
#: kernel's availability (or dispatching it) before its domain module
#: happens to be imported must not silently miss backends, so the
#: registry imports them on demand; re-imports are cached no-ops.
_DOMAIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "aes": ("repro.aes.batch", "repro.attacks.models"),
    "pdn": ("repro.pdn.model", "repro.core.waveform_bank"),
    "cpa": ("repro.attacks.cpa",),
    "resample": ("repro.preprocess.resample", "repro.preprocess.align"),
}


def _ensure_registered(kernel: str) -> None:
    import importlib  # noqa: PLC0415 — lazy

    for module in _DOMAIN_MODULES.get(kernel, ()):
        importlib.import_module(module)


def register_backend(
    kernel: str, backend: str, **ops: Callable
) -> None:
    """Register (or extend) a backend's ops for one kernel."""
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r" % (kernel,))
    _IMPLS.setdefault((kernel, backend), {}).update(ops)


# ----------------------------------------------------------------------
# Availability probing
# ----------------------------------------------------------------------

_SCIPY_AVAILABLE: Optional[bool] = None


def _scipy_available() -> bool:
    global _SCIPY_AVAILABLE
    if _SCIPY_AVAILABLE is None:
        try:
            import scipy.signal  # noqa: F401,PLC0415 — probe only

            _SCIPY_AVAILABLE = True
        except ImportError:
            _SCIPY_AVAILABLE = False
    return _SCIPY_AVAILABLE


def _load_native():
    """The native provider, or None (lazy import keeps startup cheap)."""
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    return kernels_native.load_native()


def _native_unavailable_reason() -> str:
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    return kernels_native.unavailable_reason()


def _has_scipy_ops(kernel: str) -> bool:
    return bool(_IMPLS.get((kernel, "scipy")))


def available_backends(kernel: str) -> Tuple[str, ...]:
    """Backends that would actually serve ``kernel`` on this host.

    Probes lazily (the first call may import numba or build the C
    fallback); the result is what the import-parametrized equality
    tests sweep over.
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r" % (kernel,))
    _ensure_registered(kernel)
    backends = ["numpy"]
    if _has_scipy_ops(kernel) and _scipy_available():
        backends.append("scipy")
    if _load_native() is not None:
        backends.append("native")
    return tuple(backends)


# ----------------------------------------------------------------------
# Active selection
# ----------------------------------------------------------------------

_LOCK = threading.Lock()
#: Explicitly configured spec (None: fall back to the environment).
_CONFIGURED_SPEC: Optional[str] = None
#: Resolved ``{kernel: backend}`` map, invalidated by :func:`configure`.
_RESOLVED: Optional[Dict[str, str]] = None
#: The spec string the resolved map was derived from (cache key, so a
#: changed environment variable is picked up without a configure call).
_RESOLVED_FOR: Optional[str] = None


def _current_spec() -> Optional[str]:
    if _CONFIGURED_SPEC is not None:
        return _CONFIGURED_SPEC
    return os.environ.get(KERNELS_ENV) or None


def _resolve_one(kernel: str, mode: str) -> str:
    _ensure_registered(kernel)
    if mode == "numpy":
        return "numpy"
    if mode == "scipy":
        # "scipy where it exists today": kernels without a scipy form
        # (aes, cpa) and hosts without scipy fall back to the
        # reference path rather than failing.
        if _has_scipy_ops(kernel) and _scipy_available():
            return "scipy"
        return "numpy"
    if mode == "native":
        if _load_native() is None:
            raise KernelUnavailableError(
                "native kernels requested for %r but no provider is "
                "available: %s" % (kernel, _native_unavailable_reason())
            )
        return "native"
    # auto: fastest available, preserving the bit-identity contract.
    if _load_native() is not None:
        return "native"
    if _has_scipy_ops(kernel) and _scipy_available():
        return "scipy"
    return "numpy"


def _resolve(spec: Optional[str]) -> Dict[str, str]:
    modes = parse_spec(spec)
    return {
        kernel: _resolve_one(kernel, modes[kernel])
        for kernel in KERNEL_NAMES
    }


def active_backends() -> Dict[str, str]:
    """The resolved ``{kernel: backend}`` map currently in effect."""
    global _RESOLVED, _RESOLVED_FOR
    spec = _current_spec()
    resolved = _RESOLVED
    if resolved is not None and _RESOLVED_FOR == spec:
        return dict(resolved)
    with _LOCK:
        if _RESOLVED is None or _RESOLVED_FOR != spec:
            _RESOLVED = _resolve(spec)
            _RESOLVED_FOR = spec
        return dict(_RESOLVED)


def configure(spec: Optional[str]) -> Dict[str, str]:
    """Select the kernel backends process-wide and return the map.

    Validates the spec, resolves it eagerly (so an unavailable
    ``native`` request fails here, with the structured error, rather
    than deep inside a campaign), and exports it through
    ``REPRO_KERNELS`` so process-pool workers — forked or spawned —
    resolve identically.  Passing ``None`` restores the
    environment-driven default.
    """
    global _CONFIGURED_SPEC, _RESOLVED, _RESOLVED_FOR
    resolved = _resolve(spec)
    with _LOCK:
        _CONFIGURED_SPEC = spec
        if spec is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = spec
        _RESOLVED = resolved
        _RESOLVED_FOR = _current_spec()
    return dict(resolved)


@contextmanager
def use(spec: Optional[str]) -> Iterator[Dict[str, str]]:
    """Temporarily :func:`configure` a spec (restores the previous one).

    ``None`` is a no-op passthrough, so callers can apply an optional
    knob unconditionally: ``with kernels.use(params.get("kernels")):``.
    """
    global _CONFIGURED_SPEC, _RESOLVED, _RESOLVED_FOR
    if spec is None:
        yield active_backends()
        return
    previous = _CONFIGURED_SPEC
    previous_env = os.environ.get(KERNELS_ENV)
    try:
        yield configure(spec)
    finally:
        with _LOCK:
            _CONFIGURED_SPEC = previous
            if previous_env is None:
                os.environ.pop(KERNELS_ENV, None)
            else:
                os.environ[KERNELS_ENV] = previous_env
            _RESOLVED = None
            _RESOLVED_FOR = None


def invalidate_cache() -> None:
    """Drop cached resolution + availability probes (test hook).

    Needed when a test flips ``REPRO_NATIVE_PROVIDER`` or otherwise
    changes host availability underneath an already-resolved map.
    """
    global _RESOLVED, _RESOLVED_FOR, _SCIPY_AVAILABLE
    from repro.util import kernels_native  # noqa: PLC0415 — lazy

    with _LOCK:
        _RESOLVED = None
        _RESOLVED_FOR = None
        _SCIPY_AVAILABLE = None
        kernels_native._reset_for_tests()


def dispatch(kernel: str, op: str) -> Callable:
    """The implementation of ``op`` under the active backend map.

    Resolution happens here, at call time, never at object-construction
    time — campaign objects stay free of backend handles and therefore
    picklable.  A backend that lacks a specific op falls back down the
    ``native -> scipy -> numpy`` chain for that op (so e.g. a global
    ``native`` selection serves the resample kernel's ``upfirdn``, which
    has no native form, through its scipy implementation, and its
    ``estimate_shifts``, which has no scipy form, natively).
    """
    _ensure_registered(kernel)
    backend = active_backends()[kernel]
    if backend == "native":
        provider = _load_native()
        if provider is not None:
            fn = provider.ops.get((kernel, op))
            if fn is not None:
                return fn
        if _scipy_available():
            fn = _IMPLS.get((kernel, "scipy"), {}).get(op)
            if fn is not None:
                return fn
    elif backend != "numpy":
        fn = _IMPLS.get((kernel, backend), {}).get(op)
        if fn is not None:
            return fn
    return _IMPLS[(kernel, "numpy")][op]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def backend_metadata() -> Dict[str, object]:
    """Provenance block for benchmark records.

    ``kernel_backends`` is the resolved map (e.g. ``{"aes": "native",
    "pdn": "scipy", "cpa": "native"}``), ``native_provider`` names what
    serves the native backend (``"numba"`` / ``"cc"`` / None) and
    ``numba`` records the numba version (None when not installed) —
    perf snapshots are only comparable when the kernels that produced
    them are known.
    """
    backends = active_backends()
    provider = None
    if "native" in backends.values():
        native = _load_native()
        if native is not None:
            provider = native.provider
    try:
        import numba  # noqa: PLC0415 — version probe only

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "kernel_backends": backends,
        "native_provider": provider,
        "numba": numba_version,
    }


def describe() -> str:
    """One-line availability/selection report for ``repro bench``."""
    meta = backend_metadata()
    backends = meta["kernel_backends"]
    parts = [
        "%s=%s" % (kernel, backends[kernel]) for kernel in KERNEL_NAMES
    ]
    if meta["native_provider"] is not None:
        native = "native: %s" % meta["native_provider"]
        sampler_reason = _load_native().sampler_reason
        if sampler_reason is not None:
            native += ", sampler: numpy (%s)" % sampler_reason
    else:
        native = "native: unavailable (%s)" % _native_unavailable_reason()
    numba = (
        "numba %s" % meta["numba"]
        if meta["numba"] is not None
        else "numba absent"
    )
    return "kernels: %s (%s; %s)" % (" ".join(parts), native, numba)
