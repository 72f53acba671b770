"""C source of the compiled hot-path kernels (cffi ABI mode).

One template, instantiated for ``double``/``f64`` and ``float``/``f32``,
covers the two fold primitives whose C twin measurably moves an
experiment's run time:

* ``repro_atomic_fold_*`` — batched sequential folds in per-row orders,
  shared or per-run values (:func:`repro.gpusim.atomics.
  batched_atomic_fold` and :func:`repro.fp.summation.permuted_sums`);
* ``repro_stratified_refold_*`` — the raced-segment re-fold behind
  :meth:`repro.ops.segmented.SegmentPlan.fold_runs_sparse` /
  ``fold_runs_values``.

The tree folds, the canonical segmented fold and the blocked cumsum scan
have no kernel: NumPy's lockstep vector passes already run them as fast
as the experiments can measure.

Beside the folds sit the **run-stream kernels** ``repro_pcg64_*``: NumPy's
PCG64 driven over a whole window of scheduler streams held as one state
array (:class:`repro.runtime.RunStreams`) — seeding from the derived
SeedSequence words, bounded integers by Lemire's method, float32 fills
and the raced-candidate Bernoulli plus its float64 shuffle keys, or
the same keys packed with their tap index for the transposed
convolutions' tap sort.  They
replay NumPy's ``Generator`` draws bit for bit (including its buffered
32-bit half-word); a one-time self-check against NumPy
(:func:`repro.runtime._stream_kernels_ok`) gates them, so a NumPy that
changed the algorithm falls back to the per-run ``Generator`` loop.

Bit-exactness contract
----------------------
The kernels MUST reproduce the NumPy engine bit for bit — the FPNA bits
*are* the science.  Three rules make that hold:

1. **Same operation sequence.**  Every kernel performs exactly the IEEE-754
   additions of its NumPy twin, in the same association order, in the same
   operand dtype (``float`` accumulators for f32 inputs — x86-64 SSE single
   ops round identically to NumPy's), widening to ``double`` only where the
   NumPy path assigns into a float64 output.
2. **Identity padding replicated, not skipped.**  The NumPy fold matrices
   pad short segments with identity slots; folding ``+0.0`` once normalises
   ``-0.0`` and is then a fixed point, so each kernel folds one explicit
   identity when (and only when) its NumPy twin folds one or more pads.
   The compile flags below stop the C compiler from "optimising" such adds
   away or contracting them.
3. **Stable sorts are comparison-compatible.**  The raced-segment key sort
   uses a stable insertion sort whose strict ``>`` comparisons order any
   key set (ties included) exactly like ``np.argsort(kind="stable")``.
   (Shuffle keys come from ``rng.random`` per the engine contract, so NaN
   keys cannot occur.)

``tests/test_backend.py`` fuzzes every kernel against the NumPy engine at
the bit level (−0.0, inf, NaN payloads, empty/prime sizes), and the whole
batched↔scalar property suite plus all golden pins run under both
backends via the ``backend`` fixture.

The source lives as a Python string (rather than a ``.c`` file) so the
code fingerprint (:mod:`repro.harness.fingerprint`) — which hashes every
``*.py`` file — automatically covers kernel edits, and so
:data:`KERNEL_FINGERPRINT` can be derived without filesystem probing.
"""

from __future__ import annotations

import hashlib

__all__ = ["CDEF", "CSRC", "CFLAGS", "KERNEL_FINGERPRINT"]

#: Compile flags: no fast-math reassociation, no FMA contraction — the
#: kernels must execute the literal IEEE-754 adds they spell out.
CFLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
)

_DECL_TEMPLATE = """
int repro_atomic_fold_@S@(const @T@ *x, const int64_t *orders, int per_run,
                          int64_t n_runs, int64_t n, double *out);
void repro_stratified_refold_@S@(const @T@ *vals, int per_run_vals,
                                 const int64_t *run_of_seg,
                                 const int64_t *seg_start,
                                 const int64_t *seg_count,
                                 const uint8_t *seg_pad,
                                 const int64_t *pos_off, const double *keys,
                                 const int64_t *order, const @T@ *init_rows,
                                 int64_t n_segs, int64_t n_sources, int64_t m,
                                 int64_t *lanes, @T@ *out);
"""

_KERNEL_TEMPLATE = """
/* Sequential fold per row in orders[r] (atomic retirement orders, or the
   permutations of permuted_sums); per_run selects row r of a (R, n)
   values matrix (the CG run batch), else values are shared.  Returns 1,
   before reading any value through it, when a row holds an index outside
   [0, n) (the caller then raises a named error); 0 otherwise. */
int repro_atomic_fold_@S@(const @T@ *x, const int64_t *orders, int per_run,
                          int64_t n_runs, int64_t n, double *out)
{
    for (int64_t r = 0; r < n_runs; r++) {
        const int64_t *o = orders + r * n;
        const @T@ *v = per_run ? (x + r * n) : x;
        if ((uint64_t)o[0] >= (uint64_t)n)
            return 1;
        @T@ acc = v[o[0]];
        for (int64_t i = 1; i < n; i++) {
            if ((uint64_t)o[i] >= (uint64_t)n)
                return 1;
            acc = (@T@)(acc + v[o[i]]);
        }
        out[r] = (double)acc;
    }
    return 0;
}

/* Raced-segment re-fold: stable-sort each segment's lanes by shuffle key
   (insertion sort == np.argsort(kind="stable") for any key set), then
   fold init/identity + the key-ordered contributions + one trailing
   identity when the segment is below its plan's k_max.  `lanes` is
   caller-provided scratch of at least max(seg_count) int64s. */
void repro_stratified_refold_@S@(const @T@ *vals, int per_run_vals,
                                 const int64_t *run_of_seg,
                                 const int64_t *seg_start,
                                 const int64_t *seg_count,
                                 const uint8_t *seg_pad,
                                 const int64_t *pos_off, const double *keys,
                                 const int64_t *order, const @T@ *init_rows,
                                 int64_t n_segs, int64_t n_sources, int64_t m,
                                 int64_t *lanes, @T@ *out)
{
    for (int64_t s = 0; s < n_segs; s++) {
        int64_t k = seg_count[s];
        const double *ks = keys + pos_off[s];
        for (int64_t i = 0; i < k; i++)
            lanes[i] = i;
        for (int64_t i = 1; i < k; i++) {
            int64_t li = lanes[i];
            double ki = ks[li];
            int64_t j = i - 1;
            while (j >= 0 && ks[lanes[j]] > ki) {
                lanes[j + 1] = lanes[j];
                j--;
            }
            lanes[j + 1] = li;
        }
        const @T@ *v =
            per_run_vals ? (vals + run_of_seg[s] * n_sources * m) : vals;
        @T@ *o = out + s * m;
        if (init_rows) {
            memcpy(o, init_rows + s * m, (size_t)m * sizeof(@T@));
        } else {
            for (int64_t q = 0; q < m; q++)
                o[q] = (@T@)0.0;
        }
        int64_t base = seg_start[s];
        for (int64_t i = 0; i < k; i++) {
            const @T@ *src = v + order[base + lanes[i]] * m;
            for (int64_t q = 0; q < m; q++)
                o[q] = (@T@)(o[q] + src[q]);
        }
        if (seg_pad[s]) {
            for (int64_t q = 0; q < m; q++)
                o[q] = (@T@)(o[q] + (@T@)0.0);
        }
    }
}
"""


_STREAM_DECL = """
int repro_pcg64_seed(const uint64_t *words, int64_t n, uint64_t *states);
int repro_pcg64_bounded(uint64_t *states, const int64_t *rows, int64_t n,
                        uint32_t bound, int64_t *out);
int repro_pcg64_fill_f32(uint64_t *states, const int64_t *rows, int64_t n,
                         int64_t m, float *out);
int repro_pcg64_bernoulli(uint64_t *states, const int64_t *rows, int64_t n,
                          int64_t n_cand, double q, const int64_t *counts,
                          uint8_t *mask, int64_t *row_keys);
int repro_pcg64_fill_f64(uint64_t *states, const int64_t *rows, int64_t n,
                         const int64_t *row_counts, double *out);
int repro_pcg64_tap_keys(uint64_t *states, const int64_t *rows, int64_t n,
                         const int64_t *row_counts, int64_t taps,
                         uint64_t *out);
"""

_STREAM_SRC = """
/* NumPy's PCG64 (XSL-RR 128/64) over a window of run streams.  A state row
   is six uint64 words: state (hi, lo), increment (hi, lo), then NumPy's
   has_uint32 flag and buffered upper half-word.  `rows` (NULL = 0..n-1)
   picks the window rows one call advances.  Every kernel returns 1,
   touching nothing, when the compiler lacks 128-bit integers (the caller
   then takes the NumPy path). */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 pcg_u128;
#define PCG_MULT ((((pcg_u128)0x2360ED051FC65DA4ULL) << 64) | 0x4385DF649FCCF645ULL)

typedef struct {
    pcg_u128 state, inc;
    uint64_t has32, u32;
} pcg_t;

static void pcg_load(pcg_t *g, const uint64_t *s)
{
    g->state = (((pcg_u128)s[0]) << 64) | s[1];
    g->inc = (((pcg_u128)s[2]) << 64) | s[3];
    g->has32 = s[4];
    g->u32 = s[5];
}

static void pcg_store(const pcg_t *g, uint64_t *s)
{
    s[0] = (uint64_t)(g->state >> 64);
    s[1] = (uint64_t)g->state;
    s[2] = (uint64_t)(g->inc >> 64);
    s[3] = (uint64_t)g->inc;
    s[4] = g->has32;
    s[5] = g->u32;
}

static inline uint64_t pcg_next64(pcg_t *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = ((uint64_t)(g->state >> 64)) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

/* NumPy hands out the low half-word first and buffers the high one. */
static inline uint32_t pcg_next32(pcg_t *g)
{
    if (g->has32) {
        g->has32 = 0;
        return (uint32_t)g->u32;
    }
    uint64_t x = pcg_next64(g);
    g->has32 = 1;
    g->u32 = x >> 32;
    return (uint32_t)x;
}

#define PCG_ROW(r) (states + 6 * (rows ? rows[r] : (r)))
#endif

/* PCG64 seeding from SeedSequence's four words (pcg64_set_seed). */
int repro_pcg64_seed(const uint64_t *words, int64_t n, uint64_t *states)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        const uint64_t *w = words + 4 * r;
        pcg_t g;
        g.state = 0;
        g.inc = (((((pcg_u128)w[2]) << 64) | w[3]) << 1) | 1u;
        g.state = g.state * PCG_MULT + g.inc;
        g.state += (((pcg_u128)w[0]) << 64) | w[1];
        g.state = g.state * PCG_MULT + g.inc;
        g.has32 = 0;
        g.u32 = 0;
        pcg_store(&g, states + 6 * r);
    }
    return 0;
#else
    return 1;
#endif
}

/* One integers(bound + 1) per row: Lemire's method on buffered 32-bit
   words, with NumPy's rejection threshold (bound >= 1). */
int repro_pcg64_bounded(uint64_t *states, const int64_t *rows, int64_t n,
                        uint32_t bound, int64_t *out)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        pcg_t g;
        pcg_load(&g, PCG_ROW(r));
        if (bound == 0xFFFFFFFFu) {
            out[r] = pcg_next32(&g);
        } else {
            uint32_t excl = bound + 1u;
            uint64_t m = (uint64_t)pcg_next32(&g) * excl;
            uint32_t left = (uint32_t)m;
            if (left < excl) {
                uint32_t threshold = (0xFFFFFFFFu - bound) % excl;
                while (left < threshold) {
                    m = (uint64_t)pcg_next32(&g) * excl;
                    left = (uint32_t)m;
                }
            }
            out[r] = (int64_t)(m >> 32);
        }
        pcg_store(&g, PCG_ROW(r));
    }
    return 0;
#else
    return 1;
#endif
}

/* random(m, dtype=float32) per row: 24 bits of a buffered 32-bit word. */
int repro_pcg64_fill_f32(uint64_t *states, const int64_t *rows, int64_t n,
                         int64_t m, float *out)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        pcg_t g;
        pcg_load(&g, PCG_ROW(r));
        float *o = out + r * m;
        for (int64_t i = 0; i < m; i++)
            o[i] = (float)(pcg_next32(&g) >> 8) * (1.0f / 16777216.0f);
        pcg_store(&g, PCG_ROW(r));
    }
    return 0;
#else
    return 1;
#endif
}

/* random(n_cand) < q per row; row_keys[r] sums counts[c] over the raced
   candidates (the key count the row draws next). */
int repro_pcg64_bernoulli(uint64_t *states, const int64_t *rows, int64_t n,
                          int64_t n_cand, double q, const int64_t *counts,
                          uint8_t *mask, int64_t *row_keys)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        pcg_t g;
        pcg_load(&g, PCG_ROW(r));
        uint8_t *mk = mask + r * n_cand;
        int64_t k = 0;
        for (int64_t c = 0; c < n_cand; c++) {
            double u = (double)(pcg_next64(&g) >> 11) * (1.0 / 9007199254740992.0);
            uint8_t raced = u < q;
            mk[c] = raced;
            k += counts[c] & -(int64_t)raced;  /* branch-free: races are rare */
        }
        row_keys[r] = k;
        pcg_store(&g, PCG_ROW(r));
    }
    return 0;
#else
    return 1;
#endif
}

/* random(row_counts[r]) per row, rows concatenated in order. */
int repro_pcg64_fill_f64(uint64_t *states, const int64_t *rows, int64_t n,
                         const int64_t *row_counts, double *out)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        int64_t k = row_counts[r];
        if (!k)
            continue;
        pcg_t g;
        pcg_load(&g, PCG_ROW(r));
        for (int64_t i = 0; i < k; i++)
            out[i] = (double)(pcg_next64(&g) >> 11) * (1.0 / 9007199254740992.0);
        out += k;
        pcg_store(&g, PCG_ROW(r));
    }
    return 0;
#else
    return 1;
#endif
}

/* The draws of repro_pcg64_fill_f64 as packed tap keys: the 53 bits of
   each random() double, shifted up 11 bits, OR'd with the key's tap index
   (position within its row modulo taps; every row count is a multiple of
   taps <= 2048). */
int repro_pcg64_tap_keys(uint64_t *states, const int64_t *rows, int64_t n,
                         const int64_t *row_counts, int64_t taps,
                         uint64_t *out)
{
#ifdef __SIZEOF_INT128__
    for (int64_t r = 0; r < n; r++) {
        int64_t k = row_counts[r];
        if (!k)
            continue;
        pcg_t g;
        pcg_load(&g, PCG_ROW(r));
        uint64_t t = 0;
        for (int64_t i = 0; i < k; i++) {
            out[i] = ((pcg_next64(&g) >> 11) << 11) | t;
            if (++t == (uint64_t)taps)
                t = 0;
        }
        out += k;
        pcg_store(&g, PCG_ROW(r));
    }
    return 0;
#else
    return 1;
#endif
}
"""


def _instantiate(template: str) -> str:
    return template.replace("@T@", "double").replace("@S@", "f64") + template.replace(
        "@T@", "float"
    ).replace("@S@", "f32")


#: cffi ``cdef`` declarations for both dtype instantiations.
CDEF = _instantiate(_DECL_TEMPLATE) + _STREAM_DECL

#: Complete translation unit handed to the C compiler.
CSRC = (
    "#include <stdint.h>\n#include <string.h>\n"
    + _instantiate(_KERNEL_TEMPLATE)
    + _STREAM_SRC
)

#: Identity of the compiled kernels: hashes the source, declarations and
#: compile flags.  Folded into result-cache keys (a numpy-produced entry
#: must never alias a compiled one) and into the shared-library filename
#: (a kernel edit can never load a stale build).
KERNEL_FINGERPRINT = hashlib.sha256(
    "\0".join((CDEF, CSRC, " ".join(CFLAGS))).encode()
).hexdigest()
