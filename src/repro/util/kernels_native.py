"""Native providers for the kernel dispatch registry.

Two interchangeable providers serve the ``native`` backend of
:mod:`repro.util.kernels`:

* **numba** — ``@njit(cache=True, nogil=True)`` loops, used when numba
  is importable (the ``repro[native]`` extra).  ``fastmath`` stays off:
  fused multiply-adds and reassociation would break the bit-identity
  contract.
* **cc** — a small C translation of the same loops, embedded below as
  source, compiled once with the system compiler into a content-hashed
  shared library under a cache directory, and loaded through ctypes.
  ``-ffp-contract=off`` disables FMA contraction for the same reason,
  and no ``-ffast-math`` means IEEE semantics (and a working
  ``isfinite``) everywhere.

Both express each kernel as the *same sequence of IEEE-754 float64
operations* (or exact uint8 table lookups) as the numpy reference, so
outputs are bit-identical, not merely close — the property the
exact-equality test suite and the bench's assert-before-timing check
enforce.

The cc provider also serves the sensor's jitter sampler (``pdn`` ops
``sample_padded`` and ``sample_per_endpoint``) from a second library
linked against numpy's own ``libnpyrandom.a``: one C loop per endpoint
draws numpy's Gaussian, adds the query time and latches the bit, with
the same bits out and the same generator state after as the numpy op.
Its hash also covers the numpy version and the archive path, so a numpy
upgrade rebuilds it.  When the archive or ``bitgen.h`` is missing, the
build fails, or the load-time self-check (2**20 draws against
``Generator.normal``, plus the generator state after) fails, only the
sampler ops are absent — every other native op still loads, sampling
falls back to numpy op by op, and :attr:`NativeProvider.sampler_reason`
says why.  The numba provider has no sampler ops.

The cc provider's ``resample`` op ``estimate_shifts`` (the correlation
shift search) is the one op that does not repeat the reference's
float64 operations: it certifies each row's decision with a
forward-error bound that holds for any summation order, and returns
the numpy reference's result for any batch holding a row it cannot
certify (see the C source), so its shifts are still the reference's.
:func:`alignment_counts` tallies how often that happens.  The numba
provider has no such op.

Nothing here is ever pickled: the registry dispatches to these ops at
call time, so campaign objects carry no numba dispatchers or ctypes
handles.  Forked pool workers inherit the loaded library; spawned ones
re-open it from the on-disk cache.

``REPRO_NATIVE_PROVIDER`` forces a provider: ``numba``, ``cc``, or
``none`` (useful in tests to exercise the unavailable path without
uninstalling anything).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NativeProvider",
    "alignment_counts",
    "load_native",
    "unavailable_reason",
]

PROVIDER_ENV = "REPRO_NATIVE_PROVIDER"
CACHE_ENV = "REPRO_KERNELS_CACHE"

try:  # optional dependency: the repro[native] extra
    import numba
    from numba import njit
except ImportError:  # pragma: no cover - depends on the environment
    numba = None


class NativeProvider:
    """A loaded native backend: its name and its op table.

    Attributes:
        provider: ``"numba"`` or ``"cc"`` — recorded in bench metadata.
        ops: ``{(kernel, op): callable}`` with the same signatures the
            registered numpy reference ops use.
        sampler_reason: why the fused sampler ops are absent (their
            dispatch falls back to numpy), or None when they loaded.
    """

    def __init__(
        self,
        provider: str,
        ops: Dict[Tuple[str, str], Callable],
        sampler_reason: Optional[str] = None,
    ):
        self.provider = provider
        self.ops = ops
        self.sampler_reason = sampler_reason


# ----------------------------------------------------------------------
# numba provider
# ----------------------------------------------------------------------

if numba is not None:  # pragma: no cover - exercised on numba hosts

    @njit(cache=True, nogil=True)
    def _nb_round_states(rk, pt, sbox, shift_src, g2, g3, out):
        n = pt.shape[0]
        for t in range(n):
            s = np.empty(16, dtype=np.uint8)
            tmp = np.empty(16, dtype=np.uint8)
            for i in range(16):
                out[t, 0, i] = pt[t, i]
                s[i] = pt[t, i] ^ rk[0, i]
                out[t, 1, i] = s[i]
            for r in range(1, 10):
                for i in range(16):
                    tmp[i] = sbox[s[shift_src[i]]]
                for c in range(4):
                    a0 = tmp[4 * c]
                    a1 = tmp[4 * c + 1]
                    a2 = tmp[4 * c + 2]
                    a3 = tmp[4 * c + 3]
                    s[4 * c] = (g2[a0] ^ g3[a1] ^ a2 ^ a3) ^ rk[r, 4 * c]
                    s[4 * c + 1] = (
                        a0 ^ g2[a1] ^ g3[a2] ^ a3
                    ) ^ rk[r, 4 * c + 1]
                    s[4 * c + 2] = (
                        a0 ^ a1 ^ g2[a2] ^ g3[a3]
                    ) ^ rk[r, 4 * c + 2]
                    s[4 * c + 3] = (
                        g3[a0] ^ a1 ^ a2 ^ g2[a3]
                    ) ^ rk[r, 4 * c + 3]
                for i in range(16):
                    out[t, r + 1, i] = s[i]
            for i in range(16):
                tmp[i] = sbox[s[shift_src[i]]]
            for i in range(16):
                s[i] = tmp[i] ^ rk[10, i]
                out[t, 11, i] = s[i]

    @njit(cache=True, nogil=True)
    def _nb_cycle_hd(states, cpr, pop, out):
        n = states.shape[0]
        col = np.empty(4, dtype=np.int64)
        for t in range(n):
            for r in range(11):
                for c in range(4):
                    acc = np.int64(0)
                    for i in range(4):
                        acc += pop[
                            states[t, r, 4 * c + i]
                            ^ states[t, r + 1, 4 * c + i]
                        ]
                    col[c] = acc
                for c in range(cpr):
                    out[t, r * cpr + c] = col[c % 4]

    @njit(cache=True, nogil=True)
    def _nb_cycle_activity(states, cpr, pop, vw, tw, out):
        n = states.shape[0]
        col_hd = np.empty(4, dtype=np.int64)
        col_hw = np.empty(4, dtype=np.int64)
        for t in range(n):
            for r in range(11):
                for c in range(4):
                    hd = np.int64(0)
                    hw = np.int64(0)
                    for i in range(4):
                        a = states[t, r, 4 * c + i]
                        hd += pop[a ^ states[t, r + 1, 4 * c + i]]
                        hw += pop[a]
                    col_hd[c] = hd
                    col_hw[c] = hw
                for c in range(cpr):
                    out[t, r * cpr + c] = (
                        vw * col_hw[c % 4] + tw * col_hd[c % 4]
                    )

    @njit(cache=True, nogil=True)
    def _nb_activity_ct(rk, pt, sbox, shift_src, g2, g3, pop, cpr, vw, tw,
                        activity, ct):
        n = pt.shape[0]
        prev = np.empty(16, dtype=np.uint8)
        cur = np.empty(16, dtype=np.uint8)
        tmp = np.empty(16, dtype=np.uint8)
        for t in range(n):
            for i in range(16):
                prev[i] = pt[t, i]
                cur[i] = pt[t, i] ^ rk[0, i]
            for r in range(11):
                if r > 0:
                    for i in range(16):
                        tmp[i] = sbox[prev[shift_src[i]]]
                    if r < 10:
                        for c in range(4):
                            a0 = tmp[4 * c]
                            a1 = tmp[4 * c + 1]
                            a2 = tmp[4 * c + 2]
                            a3 = tmp[4 * c + 3]
                            cur[4 * c] = (
                                g2[a0] ^ g3[a1] ^ a2 ^ a3
                            ) ^ rk[r, 4 * c]
                            cur[4 * c + 1] = (
                                a0 ^ g2[a1] ^ g3[a2] ^ a3
                            ) ^ rk[r, 4 * c + 1]
                            cur[4 * c + 2] = (
                                a0 ^ a1 ^ g2[a2] ^ g3[a3]
                            ) ^ rk[r, 4 * c + 2]
                            cur[4 * c + 3] = (
                                g3[a0] ^ a1 ^ a2 ^ g2[a3]
                            ) ^ rk[r, 4 * c + 3]
                    else:
                        for i in range(16):
                            cur[i] = tmp[i] ^ rk[10, i]
                for c in range(4):
                    hd = np.int64(0)
                    hw = np.int64(0)
                    for i in range(4):
                        a = prev[4 * c + i]
                        hd += pop[a ^ cur[4 * c + i]]
                        hw += pop[a]
                    col = vw * hw + tw * hd
                    cc = c
                    while cc < cpr:
                        activity[t, r * cpr + cc] = col
                        cc += 4
                for i in range(16):
                    prev[i] = cur[i]
            for i in range(16):
                ct[t, i] = cur[i]

    @njit(cache=True, nogil=True)
    def _nb_hyp_single_bit(ct_bytes, inv_sbox, bit, out):
        n = ct_bytes.shape[0]
        for t in range(n):
            c = ct_bytes[t]
            for k in range(256):
                out[t, k] = np.int8((inv_sbox[c ^ k] >> bit) & 1)

    @njit(cache=True, nogil=True)
    def _nb_hyp_hw(ct_bytes, inv_sbox, pop, out):
        n = ct_bytes.shape[0]
        for t in range(n):
            c = ct_bytes[t]
            for k in range(256):
                out[t, k] = np.int8(pop[inv_sbox[c ^ k]])

    @njit(cache=True, nogil=True)
    def _nb_pdn_integrate(x, c1, c2, b0, out):
        rows = x.shape[0]
        cols = x.shape[1]
        for r in range(rows):
            z1 = 0.0
            z2 = 0.0
            for i in range(cols):
                z = c1 * z1 + c2 * z2 + b0 * x[r, i]
                out[r, i] = z
                z2 = z1
                z1 = z

    @njit(cache=True, nogil=True)
    def _nb_cpa_accumulate_f64(x, h, out):
        n = x.shape[0]
        k = h.shape[1]
        sx = 0.0
        sxx = 0.0
        for i in range(n):
            xi = x[i]
            if not np.isfinite(xi):
                return i + 1
            sx += xi
            sxx += xi * xi
            for j in range(k):
                hij = h[i, j]
                if not np.isfinite(hij):
                    return i + 1
                out[2 + j] += hij
                out[2 + k + j] += hij * hij
                out[2 + 2 * k + j] += hij * xi
        out[0] = sx
        out[1] = sxx
        return 0

    @njit(cache=True, nogil=True)
    def _nb_cpa_accumulate_i8(x, h, out):
        n = x.shape[0]
        k = h.shape[1]
        sx = 0.0
        sxx = 0.0
        for i in range(n):
            xi = x[i]
            if not np.isfinite(xi):
                return i + 1
            sx += xi
            sxx += xi * xi
            for j in range(k):
                hij = float(h[i, j])
                out[2 + j] += hij
                out[2 + k + j] += hij * hij
                out[2 + 2 * k + j] += hij * xi
        out[0] = sx
        out[1] = sxx
        return 0


def _build_numba_ops() -> Dict[Tuple[str, str], Callable]:
    """Wrap the njit kernels in the registry op signatures."""
    # pragma: no cover - exercised on numba hosts
    tables = _tables()
    sbox, inv_sbox, shift_src, g2, g3, pop = tables

    def round_states(round_keys, blocks):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        out = np.empty((pt.shape[0], 12, 16), dtype=np.uint8)
        _nb_round_states(rk, pt, sbox, shift_src, g2, g3, out)
        return out

    def cycle_hd_from_states(states, cycles_per_round):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.int64
        )
        _nb_cycle_hd(st, cycles_per_round, pop, out)
        return out

    def cycle_activity_from_states(
        states, cycles_per_round, value_weight, transition_weight
    ):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        _nb_cycle_activity(
            st, cycles_per_round, pop,
            float(value_weight), float(transition_weight), out,
        )
        return out

    def activity_and_ciphertexts(
        round_keys, blocks, cycles_per_round, value_weight,
        transition_weight,
    ):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        activity = np.empty(
            (pt.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        ct = np.empty((pt.shape[0], 16), dtype=np.uint8)
        _nb_activity_ct(
            rk, pt, sbox, shift_src, g2, g3, pop, cycles_per_round,
            float(value_weight), float(transition_weight), activity, ct,
        )
        return activity, ct

    def single_bit_hypothesis(ct_bytes, bit):
        ct = np.ascontiguousarray(ct_bytes, dtype=np.uint8)
        out = np.empty((ct.shape[0], 256), dtype=np.int8)
        _nb_hyp_single_bit(ct, inv_sbox, bit, out)
        return out

    def hamming_weight_hypothesis(ct_bytes):
        ct = np.ascontiguousarray(ct_bytes, dtype=np.uint8)
        out = np.empty((ct.shape[0], 256), dtype=np.int8)
        _nb_hyp_hw(ct, inv_sbox, pop, out)
        return out

    def integrate(current, c1, c2, b0):
        x = np.ascontiguousarray(current, dtype=np.float64).reshape(1, -1)
        out = np.empty_like(x)
        _nb_pdn_integrate(x, c1, c2, b0, out)
        return out[0]

    def integrate_batch(currents, c1, c2, b0):
        x = np.ascontiguousarray(currents, dtype=np.float64)
        out = np.empty_like(x)
        _nb_pdn_integrate(x, c1, c2, b0, out)
        return out

    def accumulate(x, h):
        out = np.zeros(2 + 3 * h.shape[1], dtype=np.float64)
        xf = np.ascontiguousarray(x, dtype=np.float64)
        if h.dtype == np.int8:
            status = _nb_cpa_accumulate_i8(
                xf, np.ascontiguousarray(h), out
            )
        else:
            status = _nb_cpa_accumulate_f64(
                xf, np.ascontiguousarray(h, dtype=np.float64), out
            )
        if status != 0:
            return None
        k = h.shape[1]
        return (
            float(out[0]), float(out[1]),
            out[2:2 + k], out[2 + k:2 + 2 * k], out[2 + 2 * k:],
        )

    return {
        ("aes", "round_states"): round_states,
        ("aes", "cycle_hd_from_states"): cycle_hd_from_states,
        ("aes", "cycle_activity_from_states"): cycle_activity_from_states,
        ("aes", "activity_and_ciphertexts"): activity_and_ciphertexts,
        ("aes", "single_bit_hypothesis"): single_bit_hypothesis,
        ("aes", "hamming_weight_hypothesis"): hamming_weight_hypothesis,
        ("pdn", "integrate"): integrate,
        ("pdn", "integrate_batch"): integrate_batch,
        ("cpa", "accumulate"): accumulate,
    }


# ----------------------------------------------------------------------
# cc provider: embedded C, compiled once, loaded via ctypes
# ----------------------------------------------------------------------

#: The C translation of the hot loops.  Every float64 statement mirrors
#: the numpy/python reference operation order exactly; compiled with
#: ``-ffp-contract=off`` (no FMA) and without ``-ffast-math`` (IEEE
#: semantics, working ``isfinite``), the results are bit-identical.
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void repro_aes_round_states(
    const uint8_t *rk, const uint8_t *pt, long long n,
    const uint8_t *sbox, const uint8_t *shift_src,
    const uint8_t *g2, const uint8_t *g3, uint8_t *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *block = pt + 16 * t;
        uint8_t *st = out + 192 * t;
        uint8_t s[16], tmp[16];
        for (int i = 0; i < 16; ++i) {
            st[i] = block[i];
            s[i] = block[i] ^ rk[i];
            st[16 + i] = s[i];
        }
        for (int r = 1; r <= 9; ++r) {
            const uint8_t *k = rk + 16 * r;
            uint8_t *row = st + 16 * (r + 1);
            for (int i = 0; i < 16; ++i)
                tmp[i] = sbox[s[shift_src[i]]];
            for (int c = 0; c < 4; ++c) {
                uint8_t a0 = tmp[4 * c], a1 = tmp[4 * c + 1];
                uint8_t a2 = tmp[4 * c + 2], a3 = tmp[4 * c + 3];
                s[4 * c] = (uint8_t)(g2[a0] ^ g3[a1] ^ a2 ^ a3)
                           ^ k[4 * c];
                s[4 * c + 1] = (uint8_t)(a0 ^ g2[a1] ^ g3[a2] ^ a3)
                               ^ k[4 * c + 1];
                s[4 * c + 2] = (uint8_t)(a0 ^ a1 ^ g2[a2] ^ g3[a3])
                               ^ k[4 * c + 2];
                s[4 * c + 3] = (uint8_t)(g3[a0] ^ a1 ^ a2 ^ g2[a3])
                               ^ k[4 * c + 3];
            }
            for (int i = 0; i < 16; ++i)
                row[i] = s[i];
        }
        for (int i = 0; i < 16; ++i)
            tmp[i] = sbox[s[shift_src[i]]];
        for (int i = 0; i < 16; ++i) {
            s[i] = tmp[i] ^ rk[160 + i];
            st[176 + i] = s[i];
        }
    }
}

void repro_aes_cycle_hd(
    const uint8_t *states, long long n, long long cpr,
    const uint8_t *pop, int64_t *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *st = states + 192 * t;
        int64_t *row = out + 11 * cpr * t;
        for (int r = 0; r < 11; ++r) {
            const uint8_t *a = st + 16 * r;
            const uint8_t *b = a + 16;
            int64_t col[4];
            for (int c = 0; c < 4; ++c) {
                int64_t acc = 0;
                for (int i = 0; i < 4; ++i)
                    acc += pop[a[4 * c + i] ^ b[4 * c + i]];
                col[c] = acc;
            }
            for (long long c = 0; c < cpr; ++c)
                row[r * cpr + c] = col[c & 3];
        }
    }
}

void repro_aes_cycle_activity(
    const uint8_t *states, long long n, long long cpr,
    const uint8_t *pop, double vw, double tw, double *out)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *st = states + 192 * t;
        double *row = out + 11 * cpr * t;
        for (int r = 0; r < 11; ++r) {
            const uint8_t *a = st + 16 * r;
            const uint8_t *b = a + 16;
            double col[4];
            for (int c = 0; c < 4; ++c) {
                int64_t hd = 0, hw = 0;
                for (int i = 0; i < 4; ++i) {
                    uint8_t av = a[4 * c + i];
                    hd += pop[av ^ b[4 * c + i]];
                    hw += pop[av];
                }
                col[c] = vw * (double)hw + tw * (double)hd;
            }
            for (long long c = 0; c < cpr; ++c)
                row[r * cpr + c] = col[c & 3];
        }
    }
}

void repro_aes_activity_ct(
    const uint8_t *rk, const uint8_t *pt, long long n,
    const uint8_t *sbox, const uint8_t *shift_src,
    const uint8_t *g2, const uint8_t *g3, const uint8_t *pop,
    long long cpr, double vw, double tw,
    double *activity, uint8_t *ct)
{
    for (long long t = 0; t < n; ++t) {
        const uint8_t *block = pt + 16 * t;
        double *row = activity + 11 * cpr * t;
        uint8_t prev[16], cur[16], tmp[16];
        for (int i = 0; i < 16; ++i) {
            prev[i] = block[i];
            cur[i] = block[i] ^ rk[i];
        }
        for (int r = 0; r < 11; ++r) {
            if (r > 0) {
                for (int i = 0; i < 16; ++i)
                    tmp[i] = sbox[prev[shift_src[i]]];
                if (r < 10) {
                    const uint8_t *k = rk + 16 * r;
                    for (int c = 0; c < 4; ++c) {
                        uint8_t a0 = tmp[4 * c], a1 = tmp[4 * c + 1];
                        uint8_t a2 = tmp[4 * c + 2], a3 = tmp[4 * c + 3];
                        cur[4 * c] = (uint8_t)(g2[a0] ^ g3[a1] ^ a2 ^ a3)
                                     ^ k[4 * c];
                        cur[4 * c + 1] =
                            (uint8_t)(a0 ^ g2[a1] ^ g3[a2] ^ a3)
                            ^ k[4 * c + 1];
                        cur[4 * c + 2] =
                            (uint8_t)(a0 ^ a1 ^ g2[a2] ^ g3[a3])
                            ^ k[4 * c + 2];
                        cur[4 * c + 3] =
                            (uint8_t)(g3[a0] ^ a1 ^ a2 ^ g2[a3])
                            ^ k[4 * c + 3];
                    }
                } else {
                    for (int i = 0; i < 16; ++i)
                        cur[i] = tmp[i] ^ rk[160 + i];
                }
            }
            for (int c = 0; c < 4; ++c) {
                int64_t hd = 0, hw = 0;
                for (int i = 0; i < 4; ++i) {
                    uint8_t av = prev[4 * c + i];
                    hd += pop[av ^ cur[4 * c + i]];
                    hw += pop[av];
                }
                double col = vw * (double)hw + tw * (double)hd;
                for (long long cc = c; cc < cpr; cc += 4)
                    row[r * cpr + cc] = col;
            }
            for (int i = 0; i < 16; ++i)
                prev[i] = cur[i];
        }
        for (int i = 0; i < 16; ++i)
            ct[16 * t + i] = cur[i];
    }
}

void repro_hyp_single_bit(
    const uint8_t *ct, long long n, const uint8_t *inv_sbox,
    int bit, int8_t *out)
{
    for (long long t = 0; t < n; ++t) {
        uint8_t c = ct[t];
        int8_t *row = out + 256 * t;
        for (int k = 0; k < 256; ++k)
            row[k] = (int8_t)((inv_sbox[c ^ k] >> bit) & 1);
    }
}

void repro_hyp_hw(
    const uint8_t *ct, long long n, const uint8_t *inv_sbox,
    const uint8_t *pop, int8_t *out)
{
    for (long long t = 0; t < n; ++t) {
        uint8_t c = ct[t];
        int8_t *row = out + 256 * t;
        for (int k = 0; k < 256; ++k)
            row[k] = (int8_t)pop[inv_sbox[c ^ k]];
    }
}

void repro_pdn_integrate(
    const double *x, long long rows, long long cols,
    double c1, double c2, double b0, double *out)
{
    for (long long r = 0; r < rows; ++r) {
        const double *xi = x + cols * r;
        double *oi = out + cols * r;
        double z1 = 0.0, z2 = 0.0;
        for (long long i = 0; i < cols; ++i) {
            double z = c1 * z1 + c2 * z2 + b0 * xi[i];
            oi[i] = z;
            z2 = z1;
            z1 = z;
        }
    }
}

long long repro_cpa_accumulate_f64(
    const double *x, const double *h, long long n, long long k,
    double *out)
{
    double sx = 0.0, sxx = 0.0;
    double *sh = out + 2, *shh = out + 2 + k, *sxh = out + 2 + 2 * k;
    for (long long i = 0; i < n; ++i) {
        double xi = x[i];
        if (!isfinite(xi))
            return i + 1;
        const double *hi = h + k * i;
        sx += xi;
        sxx += xi * xi;
        for (long long j = 0; j < k; ++j) {
            double hij = hi[j];
            if (!isfinite(hij))
                return i + 1;
            sh[j] += hij;
            shh[j] += hij * hij;
            sxh[j] += hij * xi;
        }
    }
    out[0] = sx;
    out[1] = sxx;
    return 0;
}

long long repro_cpa_accumulate_i8(
    const double *x, const int8_t *h, long long n, long long k,
    double *out)
{
    double sx = 0.0, sxx = 0.0;
    double *sh = out + 2, *shh = out + 2 + k, *sxh = out + 2 + 2 * k;
    for (long long i = 0; i < n; ++i) {
        double xi = x[i];
        if (!isfinite(xi))
            return i + 1;
        const int8_t *hi = h + k * i;
        sx += xi;
        sxx += xi * xi;
        for (long long j = 0; j < k; ++j) {
            double hij = (double)hi[j];
            sh[j] += hij;
            shh[j] += hij * hij;
            sxh[j] += hij * xi;
        }
    }
    out[0] = sx;
    out[1] = sxx;
    return 0;
}

/* Correlation shift search (resample op estimate_shifts), certified.

   This loop does not copy the reference's summation order (numpy's
   pairwise sums, OpenBLAS's gemv): it bounds it.  For one candidate,
   with x the trace span, y the reference span (n samples each) and a,
   b their exactly centered forms, every float64 evaluation of the
   reference's formula -- any summation order, with or without FMA --
   lands within delta of the exact score a.b / (|a| |b|):

     - the computed mean is off by at most e = gamma_n sum|x| / n (the
       whole row's sum of |x| stands in for the span's), so the
       computed centered vector is off by at most
       (1 + u) sqrt(n) e + u |a| = rho |a|;
     - normalizing turns that into 2 rho on the score (likewise for
       b), and the dot product, sums of squares, product, sqrt and
       divide add gamma_n + gamma_{n+3};
     - |a| is bounded below from this evaluation's own sum of squares.

   A row is certified when the first maximum w of these scores beats
   every other candidate k by more than 2 (delta_w + delta_k): then
   the reference's score for w is strictly above all of its others,
   and the reference returns the same shift.  Values are kept below
   2^400 and both norms above 2^-200, so nothing overflows and every
   underflow error (at most 2^-1074 per operation) sits far below the
   4u absolute slack; the 1.01 factor covers the rounding of the
   bound's own arithmetic.  Rows with max == min take shift 0 without
   scoring, exactly as the reference does.  Returns the number of
   rows it could not certify (their shifts are left 0); the caller
   then runs the reference on the whole batch.

   work holds K (len + 4) doubles, K = 2 max_shift + 1. */
#define ALIGN_U 0x1p-53
#define ALIGN_MAX_ABS 0x1p400
#define ALIGN_MIN_NORM 0x1p-200
#define ALIGN_MAX_DENOM2 0x1p1000

static double align_gamma(long long n)
{
    double nu = (double)n * ALIGN_U;
    return nu / (1.0 - nu);
}

/* 0, -1, 1, -2, 2, ...: the reference's candidate order. */
static long long align_shift(long long k)
{
    return (k & 1) ? -(k + 1) / 2 : k / 2;
}

/* rho for one centered span, from its sum of |values| and the
   computed sum of squares of its centered values; -1 when the span
   is too close to constant (or too small) to certify.  *norm_lo gets
   a lower bound on the exactly centered span's norm. */
static double align_rho(
    long long n, double abs_sum, double sq_sum, double *norm_lo)
{
    double g = align_gamma(n);
    double spread = (1.0 + ALIGN_U) * sqrt((double)n)
                    * (1.01 * g * abs_sum / (double)n);
    double lo = (sqrt(sq_sum / (1.0 + g)) - spread) / (1.0 + ALIGN_U);
    double rho = spread / lo + ALIGN_U;
    *norm_lo = lo;
    if (!(lo >= ALIGN_MIN_NORM && rho <= 0.25))
        return -1.0;
    return rho;
}

long long repro_align_correlation(
    const double *traces, long long num, long long len,
    const double *ref, long long max_shift, double *work,
    int64_t *shifts)
{
    long long K = 2 * max_shift + 1, uncertified = 0;
    double *rc = work, *srr = rc + K * len, *rho_b = srr + K;
    double *score = rho_b + K, *delta = score + K;
    int ref_ok = 1;
    for (long long j = 0; j < len; ++j)
        ref_ok &= fabs(ref[j]) < ALIGN_MAX_ABS;
    for (long long k = 0; k < K; ++k) {
        long long s = align_shift(k), n = len - (s < 0 ? -s : s);
        const double *y = ref + (s < 0 ? -s : 0);
        double *r = rc + len * k, sum = 0.0, abs_sum = 0.0;
        double q = 0.0, lo;
        for (long long j = 0; j < n; ++j) {
            sum += y[j];
            abs_sum += fabs(y[j]);
        }
        double m = sum / (double)n;
        for (long long j = 0; j < n; ++j) {
            r[j] = y[j] - m;
            q += r[j] * r[j];
        }
        srr[k] = q;
        rho_b[k] = ref_ok ? align_rho(n, abs_sum, q, &lo) : -1.0;
    }
    for (long long i = 0; i < num; ++i) {
        const double *x = traces + len * i;
        double mx = x[0], mn = x[0], abs_sum = 0.0;
        int ok = 1;
        for (long long j = 0; j < len; ++j) {
            double v = x[j];
            ok &= fabs(v) < ALIGN_MAX_ABS;
            mx = v > mx ? v : mx;
            mn = v < mn ? v : mn;
            abs_sum += fabs(v);
        }
        shifts[i] = 0;
        if (ok && !(mx > mn))
            continue;
        long long best = 0;
        for (long long k = 0; ok && k < K; ++k) {
            long long s = align_shift(k), n = len - (s < 0 ? -s : s);
            const double *t = x + (s > 0 ? s : 0), *r = rc + len * k;
            /* Four accumulators: any order is covered by the bound. */
            double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            long long j = 0;
            for (; j + 4 <= n; j += 4) {
                s0 += t[j]; s1 += t[j + 1]; s2 += t[j + 2]; s3 += t[j + 3];
            }
            for (; j < n; ++j)
                s0 += t[j];
            double m = ((s0 + s1) + (s2 + s3)) / (double)n;
            double q0 = 0, q1 = 0, q2 = 0, q3 = 0;
            double p0 = 0, p1 = 0, p2 = 0, p3 = 0;
            for (j = 0; j + 4 <= n; j += 4) {
                double d0 = t[j] - m, d1 = t[j + 1] - m;
                double d2 = t[j + 2] - m, d3 = t[j + 3] - m;
                q0 += d0 * d0; q1 += d1 * d1; q2 += d2 * d2; q3 += d3 * d3;
                p0 += d0 * r[j]; p1 += d1 * r[j + 1];
                p2 += d2 * r[j + 2]; p3 += d3 * r[j + 3];
            }
            for (; j < n; ++j) {
                double d = t[j] - m;
                q0 += d * d;
                p0 += d * r[j];
            }
            double q = (q0 + q1) + (q2 + q3), lo;
            /* The whole row's sum of |x| bounds the span's. */
            double rho = align_rho(n, abs_sum, q, &lo);
            ok = rho >= 0.0 && rho_b[k] >= 0.0
                 && q * srr[k] <= ALIGN_MAX_DENOM2;
            score[k] = ((p0 + p1) + (p2 + p3)) / sqrt(q * srr[k]);
            delta[k] = 1.01 * (2.0 * rho + 2.0 * rho_b[k]
                               + align_gamma(n) + align_gamma(n + 3))
                       + 4.0 * ALIGN_U;
            if (score[k] > score[best])
                best = k;
        }
        for (long long k = 0; ok && k < K; ++k)
            if (k != best)
                ok = score[best] - score[k] > 2.0 * (delta[best] + delta[k]);
        if (!ok) {
            ++uncertified;
            continue;
        }
        shifts[i] = align_shift(best);
    }
    return uncertified;
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off"]

#: The fused jitter sampler (``pdn`` ops ``sample_padded`` and
#: ``sample_per_endpoint``), built as a second library so that a host
#: without numpy's static random library still gets every other op.
#:
#: Its Gaussian draw *is* ``Generator.normal``: numpy's ziggurat accepts
#: about 99% of its 64-bit words on a fast path (strip index = low 8
#: bits, sign = bit 8, magnitude = bits 9-60, accepted when the
#: magnitude is below the strip's bound), which is inlined here with the
#: sign applied by XOR instead of a branch; every
#: other word is handed to numpy's own ``random_standard_normal``
#: (linked from ``libnpyrandom.a``) through a ``bitgen_t`` that first
#: replays the word already drawn and then forwards to the caller's
#: generator, so the slow path is numpy's code, not a copy of it.  The
#: ziggurat tables are ``static`` in that archive; ``repro_zig_probe``
#: recovers the fast-path bounds and widths by calling
#: ``random_standard_normal`` on chosen words (a strip whose bound it
#: cannot recover keeps bound 0 and always takes the slow path).
_SAMPLER_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <numpy/random/bitgen.h>

/* distributions.h pulls in Python.h; declare the one entry point used. */
double random_standard_normal(bitgen_t *bitgen_state);

static uint64_t zig_k[256];
static double zig_w[256];

/* Probe generator: the chosen word first, then words that the fast
   path accepts (strip 0, magnitude 0), and 0.5 for every double, which
   ends the tail loop; any draw beyond the first word marks a reject. */
typedef struct {
    uint64_t first;
    int words;
    int doubles;
} probe_state;

static uint64_t probe_next_uint64(void *st)
{
    probe_state *p = (probe_state *)st;
    return p->words++ == 0 ? p->first : 0;
}

static uint32_t probe_next_uint32(void *st)
{
    return (uint32_t)probe_next_uint64(st);
}

static double probe_next_double(void *st)
{
    ((probe_state *)st)->doubles++;
    return 0.5;
}

static int probe_accepts(uint64_t word, double *value)
{
    probe_state p = {word, 0, 0};
    bitgen_t bg = {&p, probe_next_uint64, probe_next_uint32,
                   probe_next_double, probe_next_uint64};
    double x = random_standard_normal(&bg);
    if (value)
        *value = x;
    return p.words == 1 && p.doubles == 0;
}

long long repro_zig_probe(void)
{
    long long fast = 0;
    for (uint64_t idx = 0; idx < 256; ++idx) {
        double w = 0.0;
        uint64_t bound = 0;
        if (probe_accepts(idx | (1ULL << 9), &w)) {
            /* Acceptance is "magnitude < bound": bisect for the bound. */
            uint64_t lo = 1, hi = 1ULL << 52;
            while (hi - lo > 1) {
                uint64_t mid = lo + (hi - lo) / 2;
                if (probe_accepts(idx | (mid << 9), NULL))
                    lo = mid;
                else
                    hi = mid;
            }
            bound = hi;
            ++fast;
        } else {
            w = 0.0;
        }
        /* Stored once, never zeroed first: a re-probe rewrites the same
           values under any sampler still running on this library. */
        zig_w[idx] = w;
        zig_k[idx] = bound;
    }
    return fast;
}

typedef struct {
    bitgen_t base;
    bitgen_t *real;
    uint64_t pending;
    int has_pending;
} replay_state;

static uint64_t replay_next_uint64(void *st)
{
    replay_state *r = (replay_state *)st;
    if (r->has_pending) {
        r->has_pending = 0;
        return r->pending;
    }
    return r->real->next_uint64(r->real->state);
}

static uint32_t replay_next_uint32(void *st)
{
    replay_state *r = (replay_state *)st;
    return r->real->next_uint32(r->real->state);
}

static double replay_next_double(void *st)
{
    replay_state *r = (replay_state *)st;
    return r->real->next_double(r->real->state);
}

static uint64_t replay_next_raw(void *st)
{
    replay_state *r = (replay_state *)st;
    return r->real->next_raw(r->real->state);
}

static void replay_init(replay_state *r, bitgen_t *real)
{
    r->base.state = r;
    r->base.next_uint64 = replay_next_uint64;
    r->base.next_uint32 = replay_next_uint32;
    r->base.next_double = replay_next_double;
    r->base.next_raw = replay_next_raw;
    r->real = real;
    r->has_pending = 0;
}

/* One standard normal, bit-identical to random_standard_normal. */
static inline double draw_normal(bitgen_t *bg, replay_state *rp)
{
    uint64_t r = bg->next_uint64(bg->state);
    unsigned idx = (unsigned)(r & 0xff);
    uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
    if (__builtin_expect(rabs < zig_k[idx], 1)) {
        double x = (double)rabs * zig_w[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= ((r >> 8) & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    rp->pending = r;
    rp->has_pending = 1;
    return random_standard_normal(&rp->base);
}

/* Generator.normal(0.0, sigma, n): loc + scale * z, in that order. */
void repro_normal_fill(void *bitgen, long long n, double sigma, double *out)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    replay_state rp;
    replay_init(&rp, bg);
    for (long long j = 0; j < n; ++j)
        out[j] = 0.0 + sigma * draw_normal(bg, &rp);
}

/* Endpoint-major draw order (endpoint i's n draws follow endpoint
   i - 1's), bits written in place into the row-major (n, num_bits)
   output.  edges is (num_bits, max_edges), +inf padded. */
void repro_sample_padded(
    void *bitgen, const double *tau, long long n, double sigma,
    const double *edges, long long max_edges, long long num_bits,
    const uint8_t *initial, uint8_t *out)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    replay_state rp;
    replay_init(&rp, bg);
    for (long long i = 0; i < num_bits; ++i) {
        const double *e = edges + max_edges * i;
        uint8_t v0 = initial[i];
        uint8_t *col = out + i;
        for (long long j = 0; j < n; ++j) {
            double q = (0.0 + sigma * draw_normal(bg, &rp)) + tau[j];
            unsigned c = 0;
            for (long long k = 0; k < max_edges; ++k)
                c += q >= e[k];
            col[num_bits * j] = v0 ^ (uint8_t)(c & 1);
        }
    }
}

/* numpy's float ordering for searchsorted: NaN sorts last. */
static inline int np_less(double a, double b)
{
    return a < b || (b != b && a == a);
}

void repro_sample_per_endpoint(
    void *bitgen, const double *tau, long long n, double sigma,
    const long long *offsets, const double *times, const uint8_t *values,
    long long num_bits, uint8_t *out)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    replay_state rp;
    replay_init(&rp, bg);
    for (long long i = 0; i < num_bits; ++i) {
        const double *t = times + offsets[i];
        const uint8_t *v = values + offsets[i];
        long long len = offsets[i + 1] - offsets[i];
        uint8_t *col = out + i;
        for (long long j = 0; j < n; ++j) {
            double q = tau[j] + (0.0 + sigma * draw_normal(bg, &rp));
            long long lo = 0, hi = len;
            while (lo < hi) {
                long long mid = lo + ((hi - lo) >> 1);
                if (np_less(q, t[mid]))
                    hi = mid;
                else
                    lo = mid + 1;
            }
            col[num_bits * j] = v[lo > 0 ? lo - 1 : 0];
        }
    }
}
"""


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_ENV)
    if configured:
        return configured
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro_kernels")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile_library(
    compiler: str,
    name: str = "repro_kernels",
    source: str = _C_SOURCE,
    flags: Sequence[str] = _CFLAGS,
    link_args: Sequence[str] = ("-lm",),
    key: Sequence[str] = (),
) -> str:
    """Build (or reuse) a content-hashed shared library; return path.

    The hash covers the source, the flags and ``key`` (what else the
    build depends on), so any change to them builds a new library.
    """
    digest = hashlib.sha256(
        ("\0".join([source, *flags, *key])).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, "%s_%s.so" % (name, digest))
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    # Build into a temp name and os.replace so concurrent builders
    # (parallel test workers, forked pools) race safely.
    fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        tmp_lib = src_path[:-2] + ".so"
        subprocess.run(
            [compiler, *flags, "-o", tmp_lib, src_path, *link_args],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_lib, lib_path)
    finally:
        if os.path.exists(src_path):
            os.unlink(src_path)
    return lib_path


def _tables():
    """The shared uint8 lookup tables, contiguous, in one place."""
    from repro.aes.batch import GMUL2_TABLE, GMUL3_TABLE, POPCOUNT8_TABLE
    from repro.aes.leakage import (
        INV_SBOX_TABLE,
        SBOX_TABLE,
        SHIFT_ROWS_SOURCE,
    )

    def u8(arr):
        return np.ascontiguousarray(arr, dtype=np.uint8)

    return (
        u8(SBOX_TABLE),
        u8(INV_SBOX_TABLE),
        u8(SHIFT_ROWS_SOURCE),
        u8(GMUL2_TABLE),
        u8(GMUL3_TABLE),
        u8(POPCOUNT8_TABLE),
    )


def _build_cc_ops(lib_path: str) -> Dict[Tuple[str, str], Callable]:
    lib = ctypes.CDLL(lib_path)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i8p = ctypes.POINTER(ctypes.c_int8)
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    ll = ctypes.c_longlong
    f64 = ctypes.c_double

    lib.repro_aes_round_states.argtypes = [
        u8p, u8p, ll, u8p, u8p, u8p, u8p, u8p
    ]
    lib.repro_aes_round_states.restype = None
    lib.repro_aes_cycle_hd.argtypes = [u8p, ll, ll, u8p, i64p]
    lib.repro_aes_cycle_hd.restype = None
    lib.repro_aes_cycle_activity.argtypes = [
        u8p, ll, ll, u8p, f64, f64, f64p
    ]
    lib.repro_aes_cycle_activity.restype = None
    lib.repro_aes_activity_ct.argtypes = [
        u8p, u8p, ll, u8p, u8p, u8p, u8p, u8p, ll, f64, f64, f64p, u8p
    ]
    lib.repro_aes_activity_ct.restype = None
    lib.repro_hyp_single_bit.argtypes = [u8p, ll, u8p, ctypes.c_int, i8p]
    lib.repro_hyp_single_bit.restype = None
    lib.repro_hyp_hw.argtypes = [u8p, ll, u8p, u8p, i8p]
    lib.repro_hyp_hw.restype = None
    lib.repro_pdn_integrate.argtypes = [f64p, ll, ll, f64, f64, f64, f64p]
    lib.repro_pdn_integrate.restype = None
    lib.repro_cpa_accumulate_f64.argtypes = [f64p, f64p, ll, ll, f64p]
    lib.repro_cpa_accumulate_f64.restype = ll
    lib.repro_cpa_accumulate_i8.argtypes = [f64p, i8p, ll, ll, f64p]
    lib.repro_cpa_accumulate_i8.restype = ll
    lib.repro_align_correlation.argtypes = [
        f64p, ll, ll, f64p, ll, f64p, i64p
    ]
    lib.repro_align_correlation.restype = ll

    sbox, inv_sbox, shift_src, g2, g3, pop = _tables()

    def ptr(arr, ctype):
        return arr.ctypes.data_as(ctypes.POINTER(ctype))

    sbox_p = ptr(sbox, ctypes.c_uint8)
    inv_sbox_p = ptr(inv_sbox, ctypes.c_uint8)
    shift_p = ptr(shift_src, ctypes.c_uint8)
    g2_p = ptr(g2, ctypes.c_uint8)
    g3_p = ptr(g3, ctypes.c_uint8)
    pop_p = ptr(pop, ctypes.c_uint8)

    def round_states(round_keys, blocks):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        out = np.empty((pt.shape[0], 12, 16), dtype=np.uint8)
        lib.repro_aes_round_states(
            ptr(rk, ctypes.c_uint8), ptr(pt, ctypes.c_uint8),
            pt.shape[0], sbox_p, shift_p, g2_p, g3_p,
            ptr(out, ctypes.c_uint8),
        )
        return out

    def cycle_hd_from_states(states, cycles_per_round):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.int64
        )
        lib.repro_aes_cycle_hd(
            ptr(st, ctypes.c_uint8), st.shape[0], cycles_per_round,
            pop_p, ptr(out, ctypes.c_int64),
        )
        return out

    def cycle_activity_from_states(
        states, cycles_per_round, value_weight, transition_weight
    ):
        st = np.ascontiguousarray(states, dtype=np.uint8)
        out = np.empty(
            (st.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        lib.repro_aes_cycle_activity(
            ptr(st, ctypes.c_uint8), st.shape[0], cycles_per_round,
            pop_p, float(value_weight), float(transition_weight),
            ptr(out, ctypes.c_double),
        )
        return out

    def activity_and_ciphertexts(
        round_keys, blocks, cycles_per_round, value_weight,
        transition_weight,
    ):
        rk = np.ascontiguousarray(round_keys, dtype=np.uint8)
        pt = np.ascontiguousarray(blocks, dtype=np.uint8)
        activity = np.empty(
            (pt.shape[0], 11 * cycles_per_round), dtype=np.float64
        )
        ct = np.empty((pt.shape[0], 16), dtype=np.uint8)
        lib.repro_aes_activity_ct(
            ptr(rk, ctypes.c_uint8), ptr(pt, ctypes.c_uint8),
            pt.shape[0], sbox_p, shift_p, g2_p, g3_p, pop_p,
            cycles_per_round, float(value_weight),
            float(transition_weight), ptr(activity, ctypes.c_double),
            ptr(ct, ctypes.c_uint8),
        )
        return activity, ct

    def single_bit_hypothesis(ct_bytes, bit):
        ct = np.ascontiguousarray(ct_bytes, dtype=np.uint8)
        out = np.empty((ct.shape[0], 256), dtype=np.int8)
        lib.repro_hyp_single_bit(
            ptr(ct, ctypes.c_uint8), ct.shape[0], inv_sbox_p,
            int(bit), ptr(out, ctypes.c_int8),
        )
        return out

    def hamming_weight_hypothesis(ct_bytes):
        ct = np.ascontiguousarray(ct_bytes, dtype=np.uint8)
        out = np.empty((ct.shape[0], 256), dtype=np.int8)
        lib.repro_hyp_hw(
            ptr(ct, ctypes.c_uint8), ct.shape[0], inv_sbox_p, pop_p,
            ptr(out, ctypes.c_int8),
        )
        return out

    def integrate(current, c1, c2, b0):
        x = np.ascontiguousarray(current, dtype=np.float64)
        out = np.empty_like(x)
        lib.repro_pdn_integrate(
            ptr(x, ctypes.c_double), 1, x.shape[0],
            float(c1), float(c2), float(b0), ptr(out, ctypes.c_double),
        )
        return out

    def integrate_batch(currents, c1, c2, b0):
        x = np.ascontiguousarray(currents, dtype=np.float64)
        out = np.empty_like(x)
        lib.repro_pdn_integrate(
            ptr(x, ctypes.c_double), x.shape[0], x.shape[1],
            float(c1), float(c2), float(b0), ptr(out, ctypes.c_double),
        )
        return out

    def accumulate(x, h):
        xf = np.ascontiguousarray(x, dtype=np.float64)
        k = h.shape[1]
        out = np.zeros(2 + 3 * k, dtype=np.float64)
        if h.dtype == np.int8:
            hc = np.ascontiguousarray(h)
            status = lib.repro_cpa_accumulate_i8(
                ptr(xf, ctypes.c_double), ptr(hc, ctypes.c_int8),
                xf.shape[0], k, ptr(out, ctypes.c_double),
            )
        else:
            hc = np.ascontiguousarray(h, dtype=np.float64)
            status = lib.repro_cpa_accumulate_f64(
                ptr(xf, ctypes.c_double), ptr(hc, ctypes.c_double),
                xf.shape[0], k, ptr(out, ctypes.c_double),
            )
        if status != 0:
            return None
        return (
            float(out[0]), float(out[1]),
            out[2:2 + k].copy(), out[2 + k:2 + 2 * k].copy(),
            out[2 + 2 * k:].copy(),
        )

    def estimate_shifts(traces, reference, max_shift):
        x = np.ascontiguousarray(traces, dtype=np.float64)
        ref = np.ascontiguousarray(reference, dtype=np.float64)
        num, length = x.shape
        candidates = 2 * int(max_shift) + 1
        work = np.empty(candidates * (length + 4), dtype=np.float64)
        shifts = np.empty(num, dtype=np.int64)
        uncertified = lib.repro_align_correlation(
            ptr(x, ctypes.c_double), num, length, ptr(ref, ctypes.c_double),
            int(max_shift), ptr(work, ctypes.c_double),
            ptr(shifts, ctypes.c_int64),
        )
        _count_alignment(num, uncertified)
        if uncertified:
            # The reference itself, on the caller's own arrays: exact by
            # construction, whatever layout its reductions depend on.
            from repro.preprocess.align import (  # noqa: PLC0415 — cycle
                correlation_shifts,
            )

            return correlation_shifts(traces, reference, max_shift)
        return shifts

    return {
        ("aes", "round_states"): round_states,
        ("aes", "cycle_hd_from_states"): cycle_hd_from_states,
        ("aes", "cycle_activity_from_states"): cycle_activity_from_states,
        ("aes", "activity_and_ciphertexts"): activity_and_ciphertexts,
        ("aes", "single_bit_hypothesis"): single_bit_hypothesis,
        ("aes", "hamming_weight_hypothesis"): hamming_weight_hypothesis,
        ("pdn", "integrate"): integrate,
        ("pdn", "integrate_batch"): integrate_batch,
        ("cpa", "accumulate"): accumulate,
        ("resample", "estimate_shifts"): estimate_shifts,
    }


_ALIGN_LOCK = threading.Lock()
_ALIGN_COUNTS = dict.fromkeys(("rows", "fallback_rows"), 0)


def _count_alignment(rows: int, uncertified: int) -> None:
    with _ALIGN_LOCK:
        _ALIGN_COUNTS["rows"] += rows
        _ALIGN_COUNTS["fallback_rows"] += uncertified


def alignment_counts() -> Dict[str, int]:
    """Process-wide tally of the native correlation shift search.

    ``rows`` it was called on; ``fallback_rows`` are the rows whose
    decision it could not certify (their batches ran on the numpy
    reference instead).
    """
    with _ALIGN_LOCK:
        return dict(_ALIGN_COUNTS)


class SamplerUnavailable(Exception):
    """The fused sampler cannot be built, loaded or trusted here."""


#: The load-time self-check compares ``_SELF_CHECK_BLOCKS`` blocks of
#: ``_SELF_CHECK_BLOCK`` draws (2**20 in all) against
#: ``Generator.normal``; blocks keep its memory small.
_SELF_CHECK_BLOCK = 1 << 14
_SELF_CHECK_BLOCKS = 64


def _numpy_random_paths() -> Tuple[str, str]:
    """numpy's include dir and ``libnpyrandom.a``, or SamplerUnavailable."""
    include = np.get_include()
    header = os.path.join(include, "numpy", "random", "bitgen.h")
    archive = os.path.join(
        os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a"
    )
    for path in (header, archive):
        if not os.path.exists(path):
            raise SamplerUnavailable("%s not found" % path)
    return include, archive


def _compile_sampler(compiler: str) -> str:
    include, archive = _numpy_random_paths()
    try:
        return _compile_library(
            compiler,
            name="repro_sampler",
            source=_SAMPLER_SOURCE,
            flags=_CFLAGS + ["-I", include],
            link_args=(archive, "-lm"),
            # A numpy upgrade changes the archive's code: rebuild.
            key=(np.__version__, archive),
        )
    except subprocess.CalledProcessError as exc:
        raise SamplerUnavailable(
            "sampler build failed: %s" % (exc.stderr or exc).strip()
        ) from None


def _with_bitgen(rng: np.random.Generator, fn: Callable, *args) -> None:
    """Call ``fn(bitgen_t*, *args)`` holding the generator's lock."""
    bitgen = rng.bit_generator
    with bitgen.lock:
        fn(bitgen.ctypes.bit_generator, *args)


def _sampler_self_check(lib) -> Optional[str]:
    """None if the native draw is ``Generator.normal``, else why not."""
    expected_rng = np.random.default_rng(20211015)
    native_rng = np.random.default_rng(20211015)
    got = np.empty(_SELF_CHECK_BLOCK, dtype=np.float64)
    for _ in range(_SELF_CHECK_BLOCKS):
        expected = expected_rng.normal(0.0, 1.5, size=got.shape[0])
        _with_bitgen(
            native_rng, lib.repro_normal_fill, got.shape[0], 1.5,
            got.ctypes.data,
        )
        if not np.array_equal(expected.view(np.uint64), got.view(np.uint64)):
            return "native Gaussian draws differ from Generator.normal"
    if native_rng.bit_generator.state != expected_rng.bit_generator.state:
        return "native draws leave the generator in a different state"
    return None


def _build_sampler_ops(lib_path: str) -> Dict[Tuple[str, str], Callable]:
    """Load, probe and self-check the sampler; raise SamplerUnavailable."""
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        raise SamplerUnavailable("sampler failed to load: %s" % exc) from None
    vp = ctypes.c_void_p
    ll = ctypes.c_longlong
    f64 = ctypes.c_double
    lib.repro_zig_probe.argtypes = []
    lib.repro_zig_probe.restype = ll
    lib.repro_normal_fill.argtypes = [vp, ll, f64, vp]
    lib.repro_normal_fill.restype = None
    lib.repro_sample_padded.argtypes = [vp, vp, ll, f64, vp, ll, ll, vp, vp]
    lib.repro_sample_padded.restype = None
    lib.repro_sample_per_endpoint.argtypes = [
        vp, vp, ll, f64, vp, vp, vp, ll, vp
    ]
    lib.repro_sample_per_endpoint.restype = None

    if lib.repro_zig_probe() == 0:
        raise SamplerUnavailable("ziggurat probe found no fast-path strip")
    reason = _sampler_self_check(lib)
    if reason is not None:
        raise SamplerUnavailable("sampler self-check failed: %s" % reason)

    def sample_padded(tau, jitter_ps, rng, padded_times, initial_values):
        tau = np.ascontiguousarray(tau, dtype=np.float64)
        edges = np.ascontiguousarray(padded_times.T, dtype=np.float64)
        initial = np.ascontiguousarray(initial_values, dtype=np.uint8)
        if tau.ndim != 1 or initial.shape != edges.shape[:1]:
            raise ValueError("sample_padded: mismatched bank arrays")
        out = np.empty((tau.shape[0], edges.shape[0]), dtype=np.uint8)
        _with_bitgen(
            rng, lib.repro_sample_padded, tau.ctypes.data, tau.shape[0],
            jitter_ps, edges.ctypes.data, edges.shape[1], edges.shape[0],
            initial.ctypes.data, out.ctypes.data,
        )
        return out

    def sample_per_endpoint(
        tau, jitter_ps, rng, offsets, flat_times_ps, flat_values
    ):
        tau = np.ascontiguousarray(tau, dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        times = np.ascontiguousarray(flat_times_ps, dtype=np.float64)
        values = np.ascontiguousarray(flat_values, dtype=np.uint8)
        if (
            tau.ndim != 1
            or offsets.ndim != 1
            or offsets.shape[0] < 2
            or offsets[0] != 0
            or offsets[-1] != times.shape[0]
            or times.shape != values.shape
        ):
            raise ValueError("sample_per_endpoint: mismatched bank arrays")
        if np.any(offsets[1:] <= offsets[:-1]):
            raise ValueError("every endpoint needs at least one edge")
        num_bits = offsets.shape[0] - 1
        out = np.empty((tau.shape[0], num_bits), dtype=np.uint8)
        _with_bitgen(
            rng, lib.repro_sample_per_endpoint, tau.ctypes.data,
            tau.shape[0], jitter_ps, offsets.ctypes.data, times.ctypes.data,
            values.ctypes.data, num_bits, out.ctypes.data,
        )
        return out

    return {
        ("pdn", "sample_padded"): sample_padded,
        ("pdn", "sample_per_endpoint"): sample_per_endpoint,
    }


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

_LOADED: Optional[NativeProvider] = None
_LOAD_FAILED_REASON: Optional[str] = None
#: What the cached load was computed for, so tests that flip
#: REPRO_NATIVE_PROVIDER see a fresh probe.
_LOADED_FOR: Optional[str] = None


def _provider_request() -> str:
    return os.environ.get(PROVIDER_ENV, "auto").strip().lower() or "auto"


def load_native() -> Optional[NativeProvider]:
    """The native provider for this host, or None (reason recorded).

    Probes once per ``REPRO_NATIVE_PROVIDER`` value: numba first (when
    allowed and importable), then the cc/ctypes fallback (when a C
    compiler exists).  A failed probe caches its reason for
    :func:`unavailable_reason`.
    """
    global _LOADED, _LOAD_FAILED_REASON, _LOADED_FOR
    request = _provider_request()
    if _LOADED_FOR == request and (
        _LOADED is not None or _LOAD_FAILED_REASON is not None
    ):
        return _LOADED
    _LOADED = None
    _LOAD_FAILED_REASON = None
    _LOADED_FOR = request

    if request == "none":
        _LOAD_FAILED_REASON = (
            "disabled via %s=none" % PROVIDER_ENV
        )
        return None
    if request not in ("auto", "numba", "cc"):
        _LOAD_FAILED_REASON = (
            "unknown %s value %r (expected auto, numba, cc, or none)"
            % (PROVIDER_ENV, request)
        )
        return None

    reasons = []
    if request in ("auto", "numba"):
        if numba is not None:
            try:
                _LOADED = NativeProvider(
                    "numba", _build_numba_ops(),
                    sampler_reason="the numba provider has no sampler ops",
                )
                return _LOADED
            except Exception as exc:  # pragma: no cover - numba hosts
                reasons.append("numba kernels failed to build: %s" % exc)
        else:
            reasons.append(
                "numba is not installed (pip install 'repro[native]')"
            )
    if request in ("auto", "cc"):
        compiler = _find_compiler()
        if compiler is None:
            reasons.append("no C compiler found (tried cc, gcc, clang)")
        else:
            try:
                lib_path = _compile_library(compiler)
                ops = _build_cc_ops(lib_path)
                try:
                    ops.update(_build_sampler_ops(_compile_sampler(compiler)))
                    sampler_reason = None
                except SamplerUnavailable as exc:
                    sampler_reason = str(exc)
                _LOADED = NativeProvider("cc", ops, sampler_reason)
                return _LOADED
            except subprocess.CalledProcessError as exc:
                reasons.append(
                    "C kernel build failed: %s"
                    % (exc.stderr or exc).strip()
                )
            except OSError as exc:
                reasons.append("C kernel library failed to load: %s" % exc)
    _LOAD_FAILED_REASON = "; ".join(reasons) or (
        "provider %r produced no kernels" % request
    )
    return None


def unavailable_reason() -> str:
    """Why :func:`load_native` returned None (for structured errors)."""
    if load_native() is not None:
        return "available"
    return _LOAD_FAILED_REASON or "unknown"


def _reset_for_tests() -> None:
    """Drop the cached probe so tests can flip REPRO_NATIVE_PROVIDER."""
    global _LOADED, _LOAD_FAILED_REASON, _LOADED_FOR
    _LOADED = None
    _LOAD_FAILED_REASON = None
    _LOADED_FOR = None
