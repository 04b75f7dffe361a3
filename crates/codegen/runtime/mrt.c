/* mrt.c — the mat2c support runtime.
 *
 * Implements the MATLAB operation semantics the generated C calls into,
 * mirroring the Rust reference runtime exactly: the same column-major
 * layout, the same subsasgn growth rules (backward element moves, zero
 * fill), the same column-geometry reductions, the same xorshift64*
 * random stream, and the same fprintf rendering (including Rust-style
 * `%e` exponents) so outputs are bit-comparable with the interpreter.
 */
#include "mrt.h"

#include <math.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Basics                                                              */
/* ------------------------------------------------------------------ */

static void die(const char *msg) {
    fprintf(stderr, "mrt: %s\n", msg);
    exit(70);
}

static size_t numel(const mrt_val *v) {
    return (size_t)v->d0 * (size_t)v->d1 * (size_t)v->d2;
}

static int is_scalar(const mrt_val *v) { return numel(v) == 1; }
static int is_vector(const mrt_val *v) {
    return v->d2 == 1 && (v->d0 == 1 || v->d1 == 1);
}

/* Imaginary parts of values bound to frame buffers. The generated C
 * never releases a stack slot, so such a part cannot be freed with its
 * frame; it stays keyed by the frame buffer's address instead, and the
 * next value bound at that address reuses it. */
typedef struct {
    const double *frame;
    double *im;
    size_t cap;
} frame_im;
static frame_im *frame_ims = NULL;
static size_t frame_im_len = 0, frame_im_room = 0;

/* A zeroed imaginary buffer of v->cap elements for fixed value v. */
static double *frame_im_for(const mrt_val *v) {
    frame_im *e = NULL;
    for (size_t i = 0; i < frame_im_len && !e; i++)
        if (frame_ims[i].frame == v->re) e = &frame_ims[i];
    if (!e) {
        if (frame_im_len == frame_im_room) {
            frame_im_room = frame_im_room ? 2 * frame_im_room : 16;
            frame_ims = (frame_im *)realloc(frame_ims, frame_im_room * sizeof(frame_im));
            if (!frame_ims) die("out of memory");
        }
        e = &frame_ims[frame_im_len++];
        e->frame = v->re; e->im = NULL; e->cap = 0;
    }
    if (e->cap < v->cap) {
        free(e->im);
        e->im = (double *)malloc(v->cap * sizeof(double));
        if (!e->im) die("out of memory");
        e->cap = v->cap;
    }
    memset(e->im, 0, v->cap * sizeof(double));
    return e->im;
}

/* Drops v's imaginary part (a frame buffer's stays registered). */
static void drop_im(mrt_val *v) {
    if (v->im && !v->fixed) free(v->im);
    v->im = NULL;
}

void mrt_bind(mrt_val *v, double *buf, size_t cap) {
    v->re = buf;
    v->im = NULL;
    v->d0 = 0; v->d1 = 0; v->d2 = 1;
    v->cap = cap;
    v->fixed = buf != NULL;
    v->is_char = 0;
}

void mrt_free(mrt_val *v) {
    if (!v->fixed && v->re) free(v->re);
    drop_im(v);
    v->re = NULL; v->cap = 0;
    v->d0 = 0; v->d1 = 0; v->d2 = 1;
}

void mrt_resize(mrt_val *v, size_t bytes) { (void)v; (void)bytes; }
void mrt_grow(mrt_val *v, size_t bytes) { (void)v; (void)bytes; }

/* ------------------------------------------------------------------ */
/* Shadow probes                                                       */
/* ------------------------------------------------------------------ */

/* Per-(func, slot) storage counters, linear-probed into a fixed table.
 * Compiled unconditionally but touched only by generated probe calls,
 * so probe-free builds pay nothing. */
#define MRT_PROBE_MAX 512
typedef struct {
    int used, func, slot, is_stack;
    size_t cap_bytes, peak_bytes;
    unsigned long binds, defs[3], frees, last_use;
} mrt_probe_row;
static mrt_probe_row probe_rows[MRT_PROBE_MAX];
static unsigned long probe_tick = 0;

static mrt_probe_row *probe_row(int func, int slot) {
    size_t h = ((size_t)func * 131u + (size_t)slot) % MRT_PROBE_MAX;
    for (size_t i = 0; i < MRT_PROBE_MAX; i++) {
        mrt_probe_row *r = &probe_rows[(h + i) % MRT_PROBE_MAX];
        if (!r->used) {
            r->used = 1;
            r->func = func;
            r->slot = slot;
            return r;
        }
        if (r->func == func && r->slot == slot) return r;
    }
    return &probe_rows[h]; /* table full: merge into the home row */
}

void mrt_probe_bind(int func, int slot, int is_stack, size_t cap_bytes) {
    mrt_probe_row *r = probe_row(func, slot);
    r->is_stack = is_stack;
    r->cap_bytes = cap_bytes;
    r->binds++;
    r->last_use = ++probe_tick;
}

void mrt_probe_def(int func, int slot, int resize_kind, size_t bytes) {
    mrt_probe_row *r = probe_row(func, slot);
    if (resize_kind < 0 || resize_kind > 2) resize_kind = 2;
    r->defs[resize_kind]++;
    if (bytes > r->peak_bytes) r->peak_bytes = bytes;
    r->last_use = ++probe_tick;
}

void mrt_probe_free(int func, int slot) {
    mrt_probe_row *r = probe_row(func, slot);
    r->frees++;
    r->last_use = ++probe_tick;
}

void mrt_probe_report(void) {
    fprintf(stderr, "mrt probes: func slot kind cap peak binds o + +- frees last\n");
    for (size_t i = 0; i < MRT_PROBE_MAX; i++) {
        const mrt_probe_row *r = &probe_rows[i];
        if (!r->used) continue;
        fprintf(stderr, "mrt probe: %d %d %s %lu %lu %lu %lu %lu %lu %lu %lu\n",
                r->func, r->slot, r->is_stack ? "stack" : "heap",
                (unsigned long)r->cap_bytes, (unsigned long)r->peak_bytes,
                r->binds, r->defs[0], r->defs[1], r->defs[2], r->frees,
                r->last_use);
    }
}

/* Ensures capacity for n elements (and an imaginary buffer if wanted). */
static void ensure(mrt_val *v, size_t n, int want_im) {
    if (n > v->cap) {
        if (v->fixed) die("storage plan violation: fixed buffer too small");
        v->re = (double *)realloc(v->re, n * sizeof(double));
        if (!v->re && n) die("out of memory");
        if (v->im) {
            v->im = (double *)realloc(v->im, n * sizeof(double));
            if (!v->im && n) die("out of memory");
        }
        v->cap = n;
    }
    if (want_im && !v->im && v->fixed) {
        v->im = frame_im_for(v);
    } else if (want_im && !v->im) {
        size_t c = v->cap ? v->cap : n;
        v->im = (double *)calloc(c ? c : 1, sizeof(double));
        if (!v->im) die("out of memory");
    }
}

static void set_dims(mrt_val *v, int d0, int d1, int d2) {
    v->d0 = d0; v->d1 = d1; v->d2 = d2 ? d2 : 1;
}

/* Scratch values: heap-owned temporaries for op results. */
static void scratch_init(mrt_val *v) {
    v->re = NULL; v->im = NULL; v->cap = 0; v->fixed = 0; v->is_char = 0;
    v->d0 = 0; v->d1 = 0; v->d2 = 1;
}

/* Clears dst's value (real, non-char, 0x0) but keeps its storage, so
 * an op can write its result straight into the planned buffer. */
static void reset(mrt_val *v) {
    drop_im(v);
    v->is_char = 0;
    set_dims(v, 0, 0, 1);
}

/* Copies src's contents into dst (capacity-managed). */
static void assign(mrt_val *dst, const mrt_val *src) {
    size_t n = numel(src);
    ensure(dst, n, src->im != NULL);
    if (n) memcpy(dst->re, src->re, n * sizeof(double));
    if (src->im) {
        ensure(dst, n, 1);
        if (n) memcpy(dst->im, src->im, n * sizeof(double));
    } else {
        drop_im(dst);
    }
    set_dims(dst, src->d0, src->d1, src->d2);
    dst->is_char = src->is_char;
}

/* -a elementwise, as the Rust runtime's `arith::neg`: the sign of a
 * zero flips (`0 - a` would keep +0), and chars become doubles. */
static void negate(mrt_val *dst, const mrt_val *a) {
    assign(dst, a);
    dst->is_char = 0;
    size_t n = numel(dst);
    for (size_t i = 0; i < n; i++) {
        dst->re[i] = -dst->re[i];
        if (dst->im) dst->im[i] = -dst->im[i];
    }
}

/* Drops an all-zero imaginary part (the Rust `normalized`). */
static void normalize(mrt_val *v) {
    if (!v->im) return;
    size_t n = numel(v);
    for (size_t i = 0; i < n; i++)
        if (v->im[i] != 0.0) return;
    drop_im(v);
}

static double elem_im(const mrt_val *v, size_t i) {
    return v->im ? v->im[i] : 0.0;
}

/* ------------------------------------------------------------------ */
/* Immediates                                                          */
/* ------------------------------------------------------------------ */

/* Wide matrix literals wrap one immediate per element and all pointers
 * must stay valid until the enclosing mrt_opv call, so the rotating
 * pool is sized for the widest literal the emitter accepts. */
#define POOL 4096
static mrt_val pool[POOL];
static int pool_next = 0;
static int pool_ready = 0;

const mrt_val *mrt_wrap(mrt_imm imm) {
    if (!pool_ready) {
        for (int i = 0; i < POOL; i++) scratch_init(&pool[i]);
        pool_ready = 1;
    }
    mrt_val *v = &pool[pool_next];
    pool_next = (pool_next + 1) % POOL;
    reset(v);
    switch (imm.tag) {
    case 0:
        ensure(v, 1, 0);
        v->re[0] = imm.num;
        set_dims(v, 1, 1, 1);
        break;
    case 1:
        ensure(v, 1, 1);
        v->re[0] = 0.0;
        v->im[0] = imm.num;
        set_dims(v, 1, 1, 1);
        break;
    case 2: {
        size_t n = strlen(imm.str);
        ensure(v, n ? n : 1, 0);
        for (size_t i = 0; i < n; i++) v->re[i] = (double)(unsigned char)imm.str[i];
        set_dims(v, 1, (int)n, 1);
        v->is_char = 1;
        break;
    }
    default: /* [] — reset left it 0x0 */
        break;
    }
    return v;
}

double mrt_scalar(const mrt_val *v) {
    if (numel(v) < 1) die("scalar read of empty value");
    return v->re[0];
}

int mrt_istrue(const mrt_val *v) {
    size_t n = numel(v);
    if (n == 0) return 0;
    for (size_t i = 0; i < n; i++)
        if (v->re[i] == 0.0 && elem_im(v, i) == 0.0) return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Random numbers — the Rust runtime's xorshift64* stream              */
/* ------------------------------------------------------------------ */

static uint64_t rng_state = 0x9E3779B97F4A7C15ULL;

static double next_rand(void) {
    rng_state ^= rng_state >> 12;
    rng_state ^= rng_state << 25;
    rng_state ^= rng_state >> 27;
    uint64_t x = rng_state * 0x2545F4914F6CDD1DULL;
    return (double)(x >> 11) / 9007199254740992.0; /* 2^53 */
}

/* ------------------------------------------------------------------ */
/* Elementwise and matrix arithmetic                                   */
/* ------------------------------------------------------------------ */

static void ew_dims(const mrt_val *a, const mrt_val *b, int *d0, int *d1, int *d2) {
    const mrt_val *shape = is_scalar(a) ? b : a;
    if (!is_scalar(a) && !is_scalar(b) &&
        (a->d0 != b->d0 || a->d1 != b->d1 || a->d2 != b->d2))
        die("nonconformant elementwise operands");
    *d0 = shape->d0; *d1 = shape->d1; *d2 = shape->d2;
}

typedef void (*ckernel)(double ar, double ai, double br, double bi,
                        double *cr, double *ci);

static void k_add(double ar, double ai, double br, double bi, double *cr, double *ci) {
    *cr = ar + br; *ci = ai + bi;
}
static void k_sub(double ar, double ai, double br, double bi, double *cr, double *ci) {
    *cr = ar - br; *ci = ai - bi;
}
static void k_mul(double ar, double ai, double br, double bi, double *cr, double *ci) {
    *cr = ar * br - ai * bi; *ci = ar * bi + ai * br;
}
static void k_div(double ar, double ai, double br, double bi, double *cr, double *ci) {
    double d = br * br + bi * bi;
    *cr = (ar * br + ai * bi) / d;
    *ci = (ai * br - ar * bi) / d;
}
static void k_pow(double ar, double ai, double br, double bi, double *cr, double *ci) {
    if (ai == 0.0 && bi == 0.0) {
        if (ar >= 0.0 || br == floor(br)) {
            *cr = pow(ar, br); *ci = 0.0;
            return;
        }
        double r = pow(-ar, br), th = 3.14159265358979323846 * br;
        *cr = r * cos(th); *ci = r * sin(th);
        return;
    }
    double r = sqrt(ar * ar + ai * ai);
    if (r == 0.0) { *cr = 0.0; *ci = 0.0; return; }
    double th = atan2(ai, ar);
    double lr = log(r), li = th;
    double er = br * lr - bi * li, ei = br * li + bi * lr;
    double mag = exp(er);
    *cr = mag * cos(ei); *ci = mag * sin(ei);
}

/* Real elementwise ops on the real parts of a and b (a scalar operand
 * broadcasts), the expression chosen once, outside the element loop.
 * Arithmetic is what the Rust runtime computes on real operands: `./`
 * is `x / y` (so x./0 is Inf), k_mul's `x*y - 0*0` is exactly x*y, and
 * `.^` comes here only when pow_is_real holds. The scalar kernels are mrt.h's, which typed
 * scalars in the generated C call too. */
static void ew_real(mrt_val *out, const mrt_val *a, const mrt_val *b, int id) {
    int d0, d1, d2;
    ew_dims(a, b, &d0, &d1, &d2);
    size_t n = (size_t)d0 * d1 * d2;
    ensure(out, n, 0);
    const double *ar = a->re, *br = b->re;
    double *o = out->re;
    size_t sa = !is_scalar(a), sb = !is_scalar(b);
#define EW_LOOP(expr)                                  \
    for (size_t i = 0; i < n; i++) {                   \
        double x = ar[i * sa], y = br[i * sb];         \
        o[i] = (expr);                                 \
    }
    switch (id) {
    case MRT_OP_ADD: EW_LOOP(x + y); break;
    case MRT_OP_SUB: EW_LOOP(x - y); break;
    case MRT_OP_TIMES: EW_LOOP(x * y); break;
    case MRT_OP_RDIVIDE: EW_LOOP(x / y); break;
    case MRT_OP_EQ: EW_LOOP(x == y); break;
    case MRT_OP_NE: EW_LOOP(x != y); break;
    case MRT_OP_LT: EW_LOOP(x < y); break;
    case MRT_OP_LE: EW_LOOP(x <= y); break;
    case MRT_OP_GT: EW_LOOP(x > y); break;
    case MRT_OP_GE: EW_LOOP(x >= y); break;
    case MRT_OP_AND: EW_LOOP(x != 0.0 && y != 0.0); break;
    case MRT_OP_OR: EW_LOOP(x != 0.0 || y != 0.0); break;
    case MRT_OP_MAX: EW_LOOP(mrt_max2(x, y)); break;
    case MRT_OP_MIN: EW_LOOP(mrt_min2(x, y)); break;
    case MRT_OP_MOD: EW_LOOP(mrt_mod(x, y)); break;
    case MRT_OP_REM: EW_LOOP(mrt_rem(x, y)); break;
    case MRT_OP_ATAN2: EW_LOOP(atan2(x, y)); break;
    case MRT_OP_POWER: EW_LOOP(pow(x, y)); break;
    default: die("not a real elementwise operation");
    }
#undef EW_LOOP
    set_dims(out, d0, d1, d2);
}

static const ckernel ew_kernels[MRT_OP_COUNT] = {
    [MRT_OP_ADD] = k_add, [MRT_OP_SUB] = k_sub, [MRT_OP_TIMES] = k_mul,
    [MRT_OP_RDIVIDE] = k_div, [MRT_OP_POWER] = k_pow,
};

/* Whether every element pair of a real `.^` takes k_pow's real branch
 * (a base that is not negative, or an integral exponent), so the real
 * loop's pow(x, y) is the same bits. */
static int pow_is_real(const mrt_val *a, const mrt_val *b) {
    int d0, d1, d2;
    ew_dims(a, b, &d0, &d1, &d2);
    size_t n = (size_t)d0 * d1 * d2, sa = !is_scalar(a), sb = !is_scalar(b);
    for (size_t i = 0; i < n; i++) {
        double x = a->re[i * sa], y = b->re[i * sb];
        if (!(x >= 0.0 || y == floor(y))) return 0;
    }
    return 1;
}

/* Elementwise arithmetic: id is MRT_OP_ADD, MRT_OP_SUB, MRT_OP_TIMES, MRT_OP_RDIVIDE
 * or MRT_OP_POWER. */
static void ew_op(mrt_val *out, const mrt_val *a, const mrt_val *b, int id) {
    if (!a->im && !b->im && (id != MRT_OP_POWER || pow_is_real(a, b))) {
        ew_real(out, a, b, id);
        return;
    }
    ckernel k = ew_kernels[id];
    int d0, d1, d2;
    ew_dims(a, b, &d0, &d1, &d2);
    size_t n = (size_t)d0 * d1 * d2;
    int complex = a->im || b->im;
    /* `.^` of a negative base with fractional exponent goes complex. */
    if (k == k_pow && !complex) {
        size_t sa = is_scalar(a), sb = is_scalar(b);
        for (size_t i = 0; i < n; i++) {
            double x = a->re[sa ? 0 : i], y = b->re[sb ? 0 : i];
            if (x < 0.0 && y != floor(y)) { complex = 1; break; }
        }
    }
    ensure(out, n, complex);
    int sa = is_scalar(a), sb = is_scalar(b);
    for (size_t i = 0; i < n; i++) {
        size_t ia = sa ? 0 : i, ib = sb ? 0 : i;
        double cr, ci;
        k(a->re[ia], elem_im(a, ia), b->re[ib], elem_im(b, ib), &cr, &ci);
        out->re[i] = cr;
        if (complex) out->im[i] = ci;
    }
    set_dims(out, d0, d1, d2);
    normalize(out);
}

typedef int (*cmpkernel)(double ar, double ai, double br, double bi);
static int c_eq(double ar, double ai, double br, double bi) { return ar == br && ai == bi; }
static int c_ne(double ar, double ai, double br, double bi) { return ar != br || ai != bi; }
static int c_lt(double ar, double ai, double br, double bi) { (void)ai; (void)bi; return ar < br; }
static int c_le(double ar, double ai, double br, double bi) { (void)ai; (void)bi; return ar <= br; }
static int c_gt(double ar, double ai, double br, double bi) { (void)ai; (void)bi; return ar > br; }
static int c_ge(double ar, double ai, double br, double bi) { (void)ai; (void)bi; return ar >= br; }
static int c_and(double ar, double ai, double br, double bi) {
    return (ar != 0.0 || ai != 0.0) && (br != 0.0 || bi != 0.0);
}
static int c_or(double ar, double ai, double br, double bi) {
    return (ar != 0.0 || ai != 0.0) || (br != 0.0 || bi != 0.0);
}

static const cmpkernel cmp_kernels[MRT_OP_COUNT] = {
    [MRT_OP_EQ] = c_eq, [MRT_OP_NE] = c_ne, [MRT_OP_LT] = c_lt, [MRT_OP_LE] = c_le,
    [MRT_OP_GT] = c_gt, [MRT_OP_GE] = c_ge, [MRT_OP_AND] = c_and, [MRT_OP_OR] = c_or,
};

/* Comparisons and logical and/or: id is MRT_OP_EQ .. MRT_OP_OR. */
static void cmp_op(mrt_val *out, const mrt_val *a, const mrt_val *b, int id) {
    if (!a->im && !b->im) {
        ew_real(out, a, b, id);
        return;
    }
    cmpkernel k = cmp_kernels[id];
    int d0, d1, d2;
    ew_dims(a, b, &d0, &d1, &d2);
    size_t n = (size_t)d0 * d1 * d2;
    ensure(out, n, 0);
    int sa = is_scalar(a), sb = is_scalar(b);
    for (size_t i = 0; i < n; i++) {
        size_t ia = sa ? 0 : i, ib = sb ? 0 : i;
        out->re[i] = k(a->re[ia], elem_im(a, ia), b->re[ib], elem_im(b, ib)) ? 1.0 : 0.0;
    }
    set_dims(out, d0, d1, d2);
}

/* matmul's column updates: o[0..m) += x[0..m) * s, and the same for
 * four columns in one pass, which per element does the four passes'
 * multiplies and adds in the same order but loads and stores o once.
 * The result never shares storage with an operand (mrt_opv hands
 * aliased ops a spare); saying so, and stepping two elements at a
 * time, lets `cc -O2` use vector instructions. */
static void axpy1(double *restrict o, const double *restrict x, double s, int m) {
    int i = 0;
    for (; i + 2 <= m; i += 2) {
        o[i] += x[i] * s;
        o[i + 1] += x[i + 1] * s;
    }
    for (; i < m; i++) o[i] += x[i] * s;
}

static void axpy4(double *restrict o, const double *const *x, const double *s, int m) {
    const double *restrict x0 = x[0], *restrict x1 = x[1], *restrict x2 = x[2],
                 *restrict x3 = x[3];
    double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
#define AXPY4(k) o[k] = o[k] + x0[k] * s0 + x1[k] * s1 + x2[k] * s2 + x3[k] * s3
    int i = 0;
    for (; i + 2 <= m; i += 2) {
        AXPY4(i);
        AXPY4(i + 1);
    }
    for (; i < m; i++) AXPY4(i);
#undef AXPY4
}

static void matmul(mrt_val *out, const mrt_val *a, const mrt_val *b) {
    if (is_scalar(a) || is_scalar(b)) { ew_op(out, a, b, MRT_OP_TIMES); return; }
    if (a->d2 != 1 || b->d2 != 1) die("matmul of N-D arrays");
    int m = a->d0, kk = a->d1, k2 = b->d0, n = b->d1;
    if (kk != k2) die("inner matrix dimensions must agree");
    int complex = a->im || b->im;
    size_t total = (size_t)m * n;
    ensure(out, total, complex);
    for (size_t i = 0; i < total; i++) {
        out->re[i] = 0.0;
        if (complex) out->im[i] = 0.0;
    }
    /* Same loop order (and zero skip) as the Rust runtime. A real
     * product gathers up to four nonzero columns per pass. */
    for (int j = 0; j < n; j++) {
        const double *xs[4];
        double ss[4];
        int pending = 0;
        for (int l = 0; l < kk; l++) {
            double br = b->re[l + (size_t)kk * j], bi = elem_im(b, l + (size_t)kk * j);
            if (br == 0.0 && bi == 0.0) continue;
            double *oc = out->re + (size_t)m * j;
            const double *ac = a->re + (size_t)m * l;
            if (!complex) { /* ar*br - 0*0 is exactly ar*br */
                xs[pending] = ac;
                ss[pending++] = br;
                if (pending == 4) {
                    axpy4(oc, xs, ss, m);
                    pending = 0;
                }
                continue;
            }
            for (int i = 0; i < m; i++) {
                size_t ia = i + (size_t)m * l, io = i + (size_t)m * j;
                double ai = elem_im(a, ia);
                oc[i] += ac[i] * br - ai * bi;
                out->im[io] += ac[i] * bi + ai * br;
            }
        }
        for (int p = 0; p < pending; p++) axpy1(out->re + (size_t)m * j, xs[p], ss[p], m);
    }
    set_dims(out, m, n, 1);
    normalize(out);
}

static void transpose(mrt_val *out, const mrt_val *a, int conj) {
    if (a->d2 != 1) die("transpose of an N-D array");
    int h = a->d0, w = a->d1;
    size_t n = (size_t)h * w;
    ensure(out, n, a->im != NULL);
    for (int c = 0; c < w; c++)
        for (int r = 0; r < h; r++) {
            size_t src = r + (size_t)h * c, dst = c + (size_t)w * r;
            out->re[dst] = a->re[src];
            if (a->im) out->im[dst] = conj ? -a->im[src] : a->im[src];
        }
    set_dims(out, w, h, 1);
    if (out->im) normalize(out);
}

/* ------------------------------------------------------------------ */
/* Indexing                                                            */
/* ------------------------------------------------------------------ */

/* Folds dims so exactly m subscripts apply (trailing dims collapse). */
static void effective_dims(const mrt_val *a, int m, int *dims) {
    int raw[3] = {a->d0, a->d1, a->d2};
    if (m >= 3) {
        dims[0] = raw[0]; dims[1] = raw[1]; dims[2] = raw[2];
        return;
    }
    if (m == 2) {
        dims[0] = raw[0];
        dims[1] = raw[1] * raw[2];
    } else {
        dims[0] = raw[0] * raw[1] * raw[2];
    }
}

/* An index plan (DESIGN.md §17), built as the Rust runtime builds its
 * own: per subscripted dimension, a progression or an explicit list,
 * in indices until ix_layout turns them into element offsets. */
typedef struct {
    size_t start;   /* first index / offset of a progression        */
    ptrdiff_t step; /* its step (zero or negative allowed)          */
    size_t count;   /* indices along the dimension                  */
    size_t *list;   /* explicit indices / offsets, or NULL          */
    size_t end;     /* largest index + 1; 0 for `:` or no indices   */
} ix_axis;

typedef struct {
    int n;
    ix_axis ax[3];
} ix_plan;

/* The 0-based index of subscript value v (clamped far beyond any
 * extent, so huge values convert without overflow). */
static size_t ix_index(double v) {
    return (size_t)(v < 9.0e15 ? v : 9.0e15) - 1;
}

/* Reads subscript s into x: every value must be a positive integer;
 * equally spaced values become a progression. */
static void ix_scan(ix_axis *x, const mrt_val *s) {
    size_t n = numel(s), prev = 0;
    int prog = 1;
    x->count = n;
    for (size_t k = 0; k < n; k++) {
        double v = s->re[k];
        if (!(v >= 1.0) || v != floor(v) || isinf(v)) die("subscript must be a positive integer");
        size_t i = ix_index(v);
        if (k == 0) x->start = i;
        else if (k == 1) x->step = (ptrdiff_t)(i - prev);
        else if ((ptrdiff_t)(i - prev) != x->step) prog = 0;
        if (i >= x->end) x->end = i + 1;
        prev = i;
    }
    if (prog) return;
    x->list = (size_t *)malloc(n * sizeof(size_t));
    if (!x->list) die("out of memory");
    for (size_t k = 0; k < n; k++) x->list[k] = ix_index(s->re[k]);
}

/* Reads every subscript (NULL for `:`, which covers extents[k]) before
 * any extent is checked — the Rust runtime's order. Returns the
 * addressed element count. */
static size_t ix_build(ix_plan *p, int nsubs, const mrt_val *const *subs, const int *extents) {
    if (nsubs < 1 || nsubs > 3) die("indexing takes one to three subscripts");
    size_t total = 1;
    p->n = nsubs;
    for (int k = 0; k < nsubs; k++) {
        ix_axis *x = &p->ax[k];
        x->start = 0; x->step = 1; x->count = (size_t)extents[k];
        x->list = NULL; x->end = 0;
        if (subs[k]) ix_scan(x, subs[k]);
        total *= x->count;
    }
    return total;
}

/* Scales indices to element offsets under the array's extents. */
static void ix_layout(ix_plan *p, const int *dims) {
    size_t stride = 1;
    for (int k = 0; k < p->n; k++) {
        ix_axis *x = &p->ax[k];
        if (x->list) {
            for (size_t i = 0; i < x->count; i++) x->list[i] *= stride;
        } else {
            x->start *= stride;
            x->step *= (ptrdiff_t)stride;
        }
        stride *= (size_t)dims[k];
    }
}

static void ix_free(ix_plan *p) {
    for (int k = 0; k < p->n; k++)
        if (p->ax[k].list) free(p->ax[k].list);
}

static size_t ix_offset(const ix_axis *x, size_t k) {
    return x->list ? x->list[k] : x->start + (size_t)((ptrdiff_t)k * x->step);
}

/* The summed offset of dimensions 2..n at odometer position k, then
 * the odometer advanced (first of them fastest). */
static size_t ix_next_base(const ix_plan *p, size_t *k) {
    size_t base = 0;
    for (int d = 1; d < p->n; d++) base += ix_offset(&p->ax[d], k[d]);
    for (int d = 1; d < p->n; d++) {
        if (++k[d] < p->ax[d].count) break;
        k[d] = 0;
    }
    return base;
}

/* Copies the addressed elements of src to out, column by column; a
 * unit-step first dimension is one run. */
static void ix_gather(double *out, const double *src, const ix_plan *p, size_t total) {
    const ix_axis *in = &p->ax[0];
    size_t n0 = in->count, k[3] = {0, 0, 0};
    for (size_t e = 0; e < total; e += n0) {
        const double *s = src + ix_next_base(p, k);
        if (in->list) {
            for (size_t i = 0; i < n0; i++) out[e + i] = s[in->list[i]];
        } else if (in->step == 1 && n0 > 1) {
            memcpy(out + e, s + in->start, n0 * sizeof(double));
        } else {
            for (size_t i = 0, o = in->start; i < n0; i++, o += (size_t)in->step)
                out[e + i] = s[o];
        }
    }
}

/* Stores vals — one per addressed element, or vals[0] for all when
 * `scalar` — at the addressed positions of dst. */
static void ix_scatter(double *dst, const double *vals, int scalar, const ix_plan *p,
                       size_t total) {
    const ix_axis *in = &p->ax[0];
    size_t n0 = in->count, k[3] = {0, 0, 0}, vs = !scalar;
    for (size_t e = 0; e < total; e += n0) {
        double *d = dst + ix_next_base(p, k);
        const double *v = vals + e * vs;
        if (in->list) {
            for (size_t i = 0; i < n0; i++) d[in->list[i]] = v[i * vs];
        } else if (in->step == 1 && n0 > 1 && vs) {
            memmove(d + in->start, v, n0 * sizeof(double));
        } else {
            for (size_t i = 0, o = in->start; i < n0; i++, o += (size_t)in->step)
                d[o] = v[i * vs];
        }
    }
}

/* The offset of the element that one to three in-range scalar
 * subscripts select in a, or -1 when the index plan must run (it owns
 * every error). Like the planned VM's dispatch::scalar_index, this
 * spares scalar indexing the plan. */
static ptrdiff_t scalar_offset(const mrt_val *a, int nsubs, const mrt_val *const *subs) {
    double s[3] = {0.0, 0.0, 0.0};
    if (nsubs < 1 || nsubs > 3) return -1;
    for (int k = 0; k < nsubs; k++) {
        if (!subs[k] || numel(subs[k]) != 1) return -1;
        s[k] = subs[k]->re[0];
    }
    return mrt_offset(a, nsubs, s[0], s[1], s[2]);
}

static void subsref(mrt_val *out, const mrt_val *a, int nsubs,
                    const mrt_val *const *subs) {
    if (nsubs == 0) { assign(out, a); return; }
    ptrdiff_t at = scalar_offset(a, nsubs, subs);
    if (at >= 0) {
        ensure(out, 1, a->im != NULL);
        out->re[0] = a->re[at];
        if (a->im) out->im[0] = a->im[at];
        set_dims(out, 1, 1, 1);
        out->is_char = a->is_char;
        if (out->im) normalize(out);
        return;
    }
    int dims[3] = {1, 1, 1};
    effective_dims(a, nsubs, dims);
    ix_plan p;
    size_t total = ix_build(&p, nsubs, subs, dims);
    for (int k = 0; k < nsubs; k++)
        if (p.ax[k].end > (size_t)dims[k])
            die(nsubs == 1 ? "index exceeds array elements" : "index exceeds array extent");
    ix_layout(&p, dims);
    ensure(out, total, a->im != NULL);
    ix_gather(out->re, a->re, &p, total);
    if (a->im) ix_gather(out->im, a->im, &p, total);
    const mrt_val *s = subs[0];
    if (nsubs > 1) {
        set_dims(out, (int)p.ax[0].count, (int)p.ax[1].count, nsubs == 3 ? (int)p.ax[2].count : 1);
    } else if (!s) { /* a(:) — column of all elements */
        set_dims(out, (int)total, 1, 1);
    } else if (is_vector(a) || is_scalar(a)) {
        /* Vector sources keep their orientation; matrix subscripts
         * shape the result (as the Rust dispatcher). */
        if (a->d0 == 1) set_dims(out, 1, (int)total, 1);
        else set_dims(out, (int)total, 1, 1);
    } else if (!is_vector(s)) {
        set_dims(out, s->d0, s->d1, s->d2);
    } else {
        set_dims(out, 1, (int)total, 1);
    }
    out->is_char = a->is_char;
    if (out->im) normalize(out);
    ix_free(&p);
}

/* Grows `v` in place from old dims to new dims (zero fill, backward
 * element moves — §2.3.3.1). Column-major positions survive when the
 * value is a column or only its trailing extent grows; then nothing
 * moves and the tail is just zero-filled. */
static void grow_to(mrt_val *v, const int *old_dims, const int *new_dims) {
    size_t old_n = (size_t)old_dims[0] * old_dims[1] * old_dims[2];
    size_t new_n = (size_t)new_dims[0] * new_dims[1] * new_dims[2];
    ensure(v, new_n, 0);
    for (size_t i = old_n; i < new_n; i++) {
        v->re[i] = 0.0;
        if (v->im) v->im[i] = 0.0;
    }
    int in_place = (old_dims[1] == 1 && old_dims[2] == 1) ||
                   (old_dims[0] == new_dims[0] &&
                    (old_dims[2] == 1 || old_dims[1] == new_dims[1]));
    if (!in_place) {
        size_t new_strides[3] = {1, (size_t)new_dims[0],
                                 (size_t)new_dims[0] * new_dims[1]};
        for (size_t lin = old_n; lin-- > 0;) {
            size_t rem = lin, dst = 0;
            for (int k = 0; k < 3; k++) {
                size_t d = (size_t)old_dims[k];
                size_t sk = rem % d;
                rem /= d;
                dst += sk * new_strides[k];
            }
            if (dst != lin) {
                v->re[dst] = v->re[lin];
                v->re[lin] = 0.0;
                if (v->im) { v->im[dst] = v->im[lin]; v->im[lin] = 0.0; }
            }
        }
    }
    set_dims(v, new_dims[0], new_dims[1], new_dims[2]);
}

static void subsasgn(mrt_val *dst, const mrt_val *a, const mrt_val *r,
                     int nsubs, const mrt_val *const *subs) {
    /* Work on dst holding a's value (callers pass dst == slot of a when
     * the plan coalesced them; otherwise copy a in first). */
    if (dst->re != a->re) assign(dst, a);
    ptrdiff_t at = is_scalar(r) ? scalar_offset(dst, nsubs, subs) : -1;
    if (at >= 0) {
        if (r->im) ensure(dst, numel(dst), 1);
        dst->re[at] = r->re[0];
        if (dst->im) dst->im[at] = r->im ? r->im[0] : 0.0;
        return;
    }
    int cur[3] = {1, 1, 1};
    effective_dims(dst, nsubs, cur);
    ix_plan p;
    size_t total = ix_build(&p, nsubs, subs, cur);
    int rs = is_scalar(r);
    if (!rs && numel(r) != total) die("subsasgn value count mismatch");

    /* Target extents: grown to cover every subscript. */
    int nd[3] = {cur[0], cur[1], cur[2]};
    for (int k = 0; k < nsubs; k++) {
        if (p.ax[k].end <= (size_t)nd[k]) continue;
        if (p.ax[k].end > 0x7fffffff) die("subscript too large");
        nd[k] = (int)p.ax[k].end;
    }
    if (nsubs == 1 && nd[0] > cur[0]) {
        /* Linear growth is only defined for vectors (and empties). */
        int need = nd[0];
        if (cur[0] == 0 || (dst->d0 == 1 && dst->d2 == 1)) {
            nd[0] = 1; nd[1] = need;
        } else if (dst->d1 == 1 && dst->d2 == 1) {
            nd[1] = 1;
        } else {
            die("linear index exceeds a non-vector");
        }
        int old_dims[3] = {dst->d0, dst->d1, dst->d2};
        grow_to(dst, old_dims, nd);
    } else if (nsubs > 1 && (nd[0] != cur[0] || nd[1] != cur[1] || nd[2] != cur[2])) {
        grow_to(dst, cur, nd);
    }
    if (r->im) ensure(dst, numel(dst) ? numel(dst) : 1, 1);

    ix_layout(&p, nd);
    ix_scatter(dst->re, r->re, rs, &p, total);
    if (r->im) {
        ix_scatter(dst->im, r->im, rs, &p, total);
    } else if (dst->im) {
        static const double zero = 0.0;
        ix_scatter(dst->im, &zero, 1, &p, total);
    }
    ix_free(&p);
}

static void range_op(mrt_val *out, double a, double step, double b) {
    if (step == 0.0) die("range step cannot be zero");
    double c = floor((b - a) / step) + 1.0;
    size_t n = c > 0.0 ? (size_t)c : 0;
    ensure(out, n ? n : 1, 0);
    for (size_t k = 0; k < n; k++) out->re[k] = a + step * (double)k;
    set_dims(out, n ? 1 : 0, (int)n, 1);
    if (!n) set_dims(out, 1, 0, 1);
}

/* ------------------------------------------------------------------ */
/* Reductions (column geometry, forward order — as the Rust runtime)   */
/* ------------------------------------------------------------------ */

static void reduce_geometry(const mrt_val *a, size_t *cols, size_t *len) {
    if (is_vector(a) || is_scalar(a)) {
        *cols = 1; *len = numel(a);
    } else {
        *cols = (size_t)a->d1 * a->d2;
        *len = (size_t)a->d0;
    }
}

static void sum_op(mrt_val *out, const mrt_val *a, int mean) {
    size_t cols, len;
    reduce_geometry(a, &cols, &len);
    ensure(out, cols ? cols : 1, a->im != NULL);
    for (size_t c = 0; c < cols; c++) {
        double sr = 0.0, si = 0.0;
        for (size_t k = 0; k < len; k++) {
            sr += a->re[c * len + k];
            si += elem_im(a, c * len + k);
        }
        if (mean && len) { sr /= (double)len; si /= (double)len; }
        out->re[c] = sr;
        if (a->im) out->im[c] = si;
    }
    set_dims(out, 1, (int)cols, 1);
    if (out->im) normalize(out);
}

static void minmax1(mrt_val *vals, mrt_val *idxs, const mrt_val *a, int want_max) {
    size_t cols, len;
    reduce_geometry(a, &cols, &len);
    if (len == 0) die("max/min of empty value");
    ensure(vals, cols, 0);
    if (idxs) ensure(idxs, cols, 0);
    for (size_t c = 0; c < cols; c++) {
        double best = a->re[c * len];
        size_t bi = 0;
        for (size_t k = 1; k < len; k++) {
            double x = a->re[c * len + k];
            int better = want_max ? (x > best) : (x < best);
            if (better || best != best) { best = x; bi = k; }
        }
        vals->re[c] = best;
        if (idxs) idxs->re[c] = (double)(bi + 1);
    }
    set_dims(vals, 1, (int)cols, 1);
    if (idxs) set_dims(idxs, 1, (int)cols, 1);
}

/* ------------------------------------------------------------------ */
/* fprintf — matches the Rust renderer byte for byte                   */
/* ------------------------------------------------------------------ */

/* MATLAB renders non-finite values as NaN / Inf / -Inf in every
 * conversion (unlike C's nan/inf). Returns 1 and fills buf if x is
 * non-finite. */
static int nonfinite_str(double x, char *buf, size_t cap) {
    if (isnan(x)) { snprintf(buf, cap, "NaN"); return 1; }
    if (isinf(x)) { snprintf(buf, cap, x > 0 ? "Inf" : "-Inf"); return 1; }
    return 0;
}

/* Rust-style exponent: "1.5e-12" / "1.5e4" (no '+', no zero padding). */
static void rust_exp_fixup(char *s) {
    char *e = strchr(s, 'e');
    if (!e) return;
    char *p = e + 1;
    char sign = 0;
    if (*p == '+' || *p == '-') { sign = *p; p++; }
    while (*p == '0' && *(p + 1) != '\0') p++;
    char tail[64];
    snprintf(tail, sizeof tail, "%s%s", sign == '-' ? "-" : "", p);
    strcpy(e + 1, tail);
}

static void fmt_g(char *buf, size_t cap, double x, int prec) {
    if (x == 0.0) { snprintf(buf, cap, "0"); return; }
    double ax = fabs(x);
    int exp10 = (int)floor(log10(ax));
    if (exp10 < -4 || exp10 >= prec) {
        snprintf(buf, cap, "%.*e", prec > 0 ? prec - 1 : 0, x);
        /* trim mantissa zeros */
        char *e = strchr(buf, 'e');
        if (e) {
            char exppart[32];
            snprintf(exppart, sizeof exppart, "%s", e);
            char *end = e - 1;
            if (memchr(buf, '.', (size_t)(e - buf))) {
                while (*end == '0') end--;
                if (*end == '.') end--;
            }
            snprintf(end + 1, cap - (size_t)(end + 1 - buf), "%s", exppart);
        }
        rust_exp_fixup(buf);
    } else {
        int decimals = prec - 1 - exp10;
        if (decimals < 0) decimals = 0;
        snprintf(buf, cap, "%.*f", decimals, x);
        if (strchr(buf, '.')) {
            char *end = buf + strlen(buf) - 1;
            while (*end == '0') *end-- = '\0';
            if (*end == '.') *end = '\0';
        }
    }
}

/* One pass over the template, consuming queue elements. */
static int render_once(const char *tpl, const mrt_val *const *args, int argc,
                       size_t *qi, size_t qtotal) {
    size_t consumed_at_entry = *qi;
    /* Flattened element access across all argument values. */
    for (const char *p = tpl; *p;) {
        if (*p == '\\' && p[1]) {
            p++;
            switch (*p) {
            case 'n': putchar('\n'); break;
            case 't': putchar('\t'); break;
            case 'r': putchar('\r'); break;
            case '\\': putchar('\\'); break;
            default: putchar('\\'); putchar(*p); break;
            }
            p++;
            continue;
        }
        if (*p == '%' && p[1] == '%') { putchar('%'); p += 2; continue; }
        if (*p != '%') { putchar(*p++); continue; }
        p++;
        int left = 0;
        if (*p == '-') { left = 1; p++; }
        int width = 0;
        while (*p >= '0' && *p <= '9') width = width * 10 + (*p++ - '0');
        int prec = -1;
        if (*p == '.') {
            p++;
            prec = 0;
            while (*p >= '0' && *p <= '9') prec = prec * 10 + (*p++ - '0');
        }
        char conv = *p ? *p++ : '\0';
        /* Fetch the next queue element. */
        double val = 0.0;
        int is_char_elem = 0;
        size_t seen = 0;
        const mrt_val *owner = NULL;
        size_t owner_off = 0;
        for (int a = 0; a < argc && !owner; a++) {
            size_t n = numel(args[a]);
            if (*qi < seen + n) { owner = args[a]; owner_off = *qi - seen; }
            seen += n;
        }
        if (owner) {
            val = owner->re[owner_off];
            is_char_elem = owner->is_char;
        }
        char text[256];
        switch (conv) {
        case 'd': case 'i': case 'u':
            (*qi)++;
            if (nonfinite_str(val, text, sizeof text)) break;
            if (val == floor(val) && fabs(val) < 9.2e18)
                snprintf(text, sizeof text, "%lld", (long long)val);
            else
                snprintf(text, sizeof text, "%g", val);
            break;
        case 'f':
            (*qi)++;
            if (nonfinite_str(val, text, sizeof text)) break;
            snprintf(text, sizeof text, "%.*f", prec < 0 ? 6 : prec, val);
            break;
        case 'e':
            (*qi)++;
            if (nonfinite_str(val, text, sizeof text)) break;
            snprintf(text, sizeof text, "%.*e", prec < 0 ? 6 : prec, val);
            rust_exp_fixup(text);
            break;
        case 'g':
            (*qi)++;
            if (nonfinite_str(val, text, sizeof text)) break;
            fmt_g(text, sizeof text, val, prec < 0 ? 6 : prec);
            break;
        case 'c':
            (*qi)++;
            snprintf(text, sizeof text, "%c", (int)val);
            break;
        case 's': {
            size_t ti = 0;
            while (owner && ti + 1 < sizeof text) {
                text[ti++] = (char)(int)owner->re[owner_off];
                (*qi)++;
                int was_char = owner->is_char;
                /* advance owner/offset */
                owner = NULL;
                size_t seen2 = 0;
                for (int a = 0; a < argc && !owner; a++) {
                    size_t n = numel(args[a]);
                    if (*qi < seen2 + n) { owner = args[a]; owner_off = *qi - seen2; }
                    seen2 += n;
                }
                if (!was_char) break;
            }
            text[ti] = '\0';
            break;
        }
        default:
            die("unsupported fprintf conversion");
            return 0;
        }
        (void)is_char_elem;
        int len = (int)strlen(text);
        if (len < width) {
            if (left) { fputs(text, stdout); for (int i = len; i < width; i++) putchar(' '); }
            else { for (int i = len; i < width; i++) putchar(' '); fputs(text, stdout); }
        } else {
            fputs(text, stdout);
        }
    }
    return *qi > consumed_at_entry || *qi >= qtotal;
}

static void do_fprintf(const mrt_val *const *args, int argc) {
    if (argc < 1) die("fprintf needs a format");
    const mrt_val *fmt = args[0];
    static char tpl[4096];
    size_t n = numel(fmt);
    if (n >= sizeof tpl) die("format too long");
    for (size_t i = 0; i < n; i++) tpl[i] = (char)(int)fmt->re[i];
    tpl[n] = '\0';
    size_t qtotal = 0;
    for (int a = 1; a < argc; a++) qtotal += numel(args[a]);
    size_t qi = 0;
    for (;;) {
        size_t before = qi;
        if (!render_once(tpl, args + 1, argc - 1, &qi, qtotal)) break;
        if (qi >= qtotal || qi == before) break;
    }
}

/* One number, disp-style (the Rust fmt_num): an integer, a nonzero
 * below what %.4f shows in %.4e, else %.4f. */
static void fmt_num(char *buf, size_t cap, double x) {
    if (nonfinite_str(x, buf, cap)) return;
    if (x == floor(x) && fabs(x) < 1e15) snprintf(buf, cap, "%lld", (long long)x);
    else if (fabs(x) < 1e-4) snprintf(buf, cap, "%.4e", x);
    else snprintf(buf, cap, "%.4f", x);
}

/* One element, disp-style (matches the Rust fmt_elem/fmt_num pair). */
static void fmt_cell(char *cell, size_t cap, double re, double im) {
    char rp[64], ip[64];
    fmt_num(rp, sizeof rp, re);
    if (im == 0.0) { snprintf(cell, cap, "%s", rp); return; }
    fmt_num(ip, sizeof ip, fabs(im));
    snprintf(cell, cap, "%s %c %si", rp, im < 0.0 ? '-' : '+', ip);
}

/* The value body the way `disp` prints it: Rust's display_string plus
 * the single trailing newline the dispatcher appends. */
static void display_body(const mrt_val *v) {
    size_t n = numel(v);
    if (n == 0) {
        printf("     []\n");
        return;
    }
    if (v->is_char && v->d0 == 1) {
        for (size_t i = 0; i < n; i++) putchar((int)v->re[i]);
        putchar('\n');
        return;
    }
    char cell[160];
    if (n == 1) {
        fmt_cell(cell, sizeof cell, v->re[0], elem_im(v, 0));
        printf("    %s\n", cell);
        return;
    }
    size_t pages = v->d2 > 1 ? (size_t)v->d2 : 1;
    for (size_t p = 0; p < pages; p++) {
        if (pages > 1) printf("(:,:,%zu)\n", p + 1);
        for (int r = 0; r < v->d0; r++) {
            printf("   ");
            for (int c = 0; c < v->d1; c++) {
                size_t idx = (size_t)r + (size_t)v->d0 * c + (size_t)v->d0 * v->d1 * p;
                fmt_cell(cell, sizeof cell, v->re[idx], elem_im(v, idx));
                printf(" %10s", cell);
            }
            printf("\n");
        }
    }
}

void mrt_display(const char *name, const mrt_val *v) {
    printf("%s =\n", name);
    display_body(v);
}

/* ------------------------------------------------------------------ */
/* Matrix-literal concatenation ([a b; c d])                           */
/* ------------------------------------------------------------------ */

#define MAXARGS 64

/* Horizontal concatenation: equal heights, widths add. */
static void hcat_into(mrt_val *out, const mrt_val *const *parts, int n) {
    int h = parts[0]->d0;
    long w = 0;
    int want_im = 0, all_char = 1;
    for (int i = 0; i < n; i++) {
        if (parts[i]->d2 != 1) die("concatenation of >2-D arrays is not supported");
        if (parts[i]->d0 != h) die("horizontal concatenation height mismatch");
        w += parts[i]->d1;
        if (parts[i]->im) want_im = 1;
        if (!parts[i]->is_char) all_char = 0;
    }
    size_t total = (size_t)h * (size_t)w;
    ensure(out, total ? total : 1, want_im);
    size_t k = 0;
    for (int i = 0; i < n; i++) {
        size_t pn = numel(parts[i]);
        memcpy(out->re + k, parts[i]->re, pn * sizeof(double));
        if (want_im)
            for (size_t j = 0; j < pn; j++) out->im[k + j] = elem_im(parts[i], j);
        k += pn;
    }
    set_dims(out, h, (int)w, 1);
    out->is_char = all_char;
    if (out->im) normalize(out);
}

/* Vertical concatenation: equal widths, heights add. */
static void vcat_into(mrt_val *out, const mrt_val *const *parts, int n) {
    if (n == 1) {
        assign(out, parts[0]);
        return;
    }
    int w = parts[0]->d1;
    long h = 0;
    int want_im = 0, all_char = 1;
    for (int i = 0; i < n; i++) {
        if (parts[i]->d2 != 1) die("concatenation of >2-D arrays is not supported");
        if (parts[i]->d1 != w) die("vertical concatenation width mismatch");
        h += parts[i]->d0;
        if (parts[i]->im) want_im = 1;
        if (!parts[i]->is_char) all_char = 0;
    }
    size_t total = (size_t)h * (size_t)w;
    ensure(out, total ? total : 1, want_im);
    long row0 = 0;
    for (int i = 0; i < n; i++) {
        int ph = parts[i]->d0;
        for (int c = 0; c < w; c++)
            for (int r = 0; r < ph; r++) {
                size_t di = (size_t)(row0 + r) + (size_t)h * c;
                size_t si = (size_t)r + (size_t)ph * c;
                out->re[di] = parts[i]->re[si];
                if (want_im) out->im[di] = elem_im(parts[i], si);
            }
        row0 += ph;
    }
    set_dims(out, (int)h, w, 1);
    out->is_char = all_char;
    if (out->im) normalize(out);
}

/* Row k of the literal holds rows[k] operands. Empty operands are
 * skipped per row; all rows empty yields the 0x0 empty (the Rust
 * matrix_build). */
static void do_concat(mrt_val *scr, int nrows, const int *rows, const mrt_val *const *a,
                      int argc) {
    /* Sized by argc — the literal may be arbitrarily wide. */
    mrt_val *built = (mrt_val *)malloc((size_t)argc * sizeof(mrt_val));
    const mrt_val **rowrefs = (const mrt_val **)malloc((size_t)argc * sizeof(mrt_val *));
    const mrt_val **parts = (const mrt_val **)malloc((size_t)argc * sizeof(mrt_val *));
    if ((!built || !rowrefs || !parts) && argc) die("out of memory");
    int nbuilt = 0, k = 0;
    for (int r = 0; r < nrows && k < argc; r++) {
        int np = 0;
        for (int i = 0; i < rows[r] && k < argc; i++, k++)
            if (numel(a[k]) > 0) parts[np++] = a[k];
        if (np == 0) continue;
        scratch_init(&built[nbuilt]);
        hcat_into(&built[nbuilt], parts, np);
        rowrefs[nbuilt] = &built[nbuilt];
        nbuilt++;
    }
    if (nbuilt == 0) {
        ensure(scr, 1, 0);
        set_dims(scr, 0, 0, 1);
    } else {
        vcat_into(scr, rowrefs, nbuilt);
        for (int i = 0; i < nbuilt; i++) {
            free(built[i].re);
            free(built[i].im);
        }
    }
    free(built);
    free(rowrefs);
    free(parts);
}

/* ------------------------------------------------------------------ */
/* The dispatcher                                                      */
/* ------------------------------------------------------------------ */

static void fill_like(mrt_val *out, const mrt_val *const *args, int argc, double fill) {
    int d[3] = {1, 1, 1};
    if (argc == 1) {
        int n = (int)mrt_scalar(args[0]);
        d[0] = n < 0 ? 0 : n; d[1] = d[0];
    } else if (argc >= 2) {
        for (int k = 0; k < argc && k < 3; k++) {
            int n = (int)mrt_scalar(args[k]);
            d[k] = n < 0 ? 0 : n;
        }
    }
    size_t n = (size_t)d[0] * d[1] * d[2];
    ensure(out, n ? n : 1, 0);
    for (size_t i = 0; i < n; i++) out->re[i] = fill;
    set_dims(out, d[0], d[1], d[2]);
}

typedef void (*map1)(double, double, double *, double *);
/* A real NaN is not negative: sqrt and log keep it a real NaN. */
static void m_sqrt(double r, double i, double *or_, double *oi) {
    if (i == 0.0) {
        if (r >= 0.0 || isnan(r)) { *or_ = sqrt(r); *oi = 0.0; }
        else { *or_ = 0.0; *oi = sqrt(-r); }
        return;
    }
    double m = sqrt(r * r + i * i);
    double u = sqrt((m + r) / 2.0), v = sqrt((m - r) / 2.0);
    *or_ = u; *oi = i < 0.0 ? -v : v;
}
static void m_abs(double r, double i, double *or_, double *oi) {
    *or_ = i == 0.0 ? fabs(r) : sqrt(r * r + i * i); *oi = 0.0;
}
static void m_sin(double r, double i, double *or_, double *oi) {
    if (i == 0.0) { *or_ = sin(r); *oi = 0.0; return; }
    *or_ = sin(r) * cosh(i); *oi = cos(r) * sinh(i);
}
static void m_cos(double r, double i, double *or_, double *oi) {
    if (i == 0.0) { *or_ = cos(r); *oi = 0.0; return; }
    *or_ = cos(r) * cosh(i); *oi = -sin(r) * sinh(i);
}
static void m_tan(double r, double i, double *or_, double *oi) {
    if (i == 0.0) { *or_ = tan(r); *oi = 0.0; return; }
    double d = cos(2.0 * r) + cosh(2.0 * i);
    *or_ = sin(2.0 * r) / d; *oi = sinh(2.0 * i) / d;
}
static void m_exp(double r, double i, double *or_, double *oi) {
    double m = exp(r);
    if (i == 0.0) { *or_ = m; *oi = 0.0; return; }
    *or_ = m * cos(i); *oi = m * sin(i);
}
static void m_log(double r, double i, double *or_, double *oi) {
    if (i == 0.0 && (r > 0.0 || isnan(r))) { *or_ = log(r); *oi = 0.0; return; }
    double m = sqrt(r * r + i * i);
    *or_ = log(m); *oi = atan2(i, r);
}
static void m_floor(double r, double i, double *or_, double *oi) { *or_ = floor(r); *oi = floor(i); }
static void m_ceil(double r, double i, double *or_, double *oi) { *or_ = ceil(r); *oi = ceil(i); }
static void m_round(double r, double i, double *or_, double *oi) {
    *or_ = mrt_round(r);
    *oi = mrt_round(i);
}
static void m_fix(double r, double i, double *or_, double *oi) { *or_ = trunc(r); *oi = trunc(i); }
static void m_atan(double r, double i, double *or_, double *oi) { (void)i; *or_ = atan(r); *oi = 0.0; }
static void m_real(double r, double i, double *or_, double *oi) { (void)i; *or_ = r; *oi = 0.0; }
static void m_imag(double r, double i, double *or_, double *oi) { (void)r; *or_ = i; *oi = 0.0; }
static void m_conj(double r, double i, double *or_, double *oi) { *or_ = r; *oi = -i; }
/* MATLAB sign: z / |z| for complex, the usual -1/0/1 for real. */
static void m_sign(double r, double i, double *or_, double *oi) {
    if (i == 0.0) {
        *or_ = mrt_sign(r);
        *oi = 0.0;
    } else {
        double m = sqrt(r * r + i * i);
        *or_ = r / m;
        *oi = i / m;
    }
}

static void apply_map(mrt_val *out, const mrt_val *a, map1 k, int forces_real) {
    size_t n = numel(a);
    /* sqrt of negative reals goes complex; probe first. */
    int complex = a->im != NULL;
    if (k == m_sqrt && !complex) {
        for (size_t i = 0; i < n; i++)
            if (a->re[i] < 0.0) { complex = 1; break; }
    }
    if (k == m_log && !complex) {
        for (size_t i = 0; i < n; i++)
            if (a->re[i] <= 0.0) { complex = 1; break; }
    }
    if (forces_real) complex = 0;
    ensure(out, n ? n : 1, complex);
    for (size_t i = 0; i < n; i++) {
        double r, m;
        k(a->re[i], elem_im(a, i), &r, &m);
        out->re[i] = r;
        if (complex) out->im[i] = m;
    }
    set_dims(out, a->d0, a->d1, a->d2);
    if (out->im) normalize(out);
}

static void set_scalar(mrt_val *out, double x) {
    ensure(out, 1, 0);
    out->re[0] = x;
    set_dims(out, 1, 1, 1);
}

/* Computes op `id` of a[0..argc) into out, which holds no value yet
 * (real, non-char, 0x0) and shares no storage with a. */
static void dispatch(mrt_val *out, int id, const mrt_val *const *a, int argc) {
    switch (id) {
    case MRT_OP_COPY: case MRT_OP_UPLUS: assign(out, a[0]); return;
    case MRT_OP_ADD: case MRT_OP_SUB: case MRT_OP_TIMES: case MRT_OP_RDIVIDE: case MRT_OP_POWER:
        ew_op(out, a[0], a[1], id);
        return;
    case MRT_OP_MTIMES: matmul(out, a[0], a[1]); return;
    case MRT_OP_LDIVIDE: ew_op(out, a[1], a[0], MRT_OP_RDIVIDE); return;
    case MRT_OP_MRDIVIDE:
        if (!is_scalar(a[1])) die("matrix right division needs a scalar divisor (runtime)");
        ew_op(out, a[0], a[1], MRT_OP_RDIVIDE);
        return;
    case MRT_OP_MLDIVIDE:
        if (!is_scalar(a[0])) die("matrix left division unsupported in the C runtime");
        ew_op(out, a[1], a[0], MRT_OP_RDIVIDE);
        return;
    case MRT_OP_MPOWER:
        if (!is_scalar(a[0]) || !is_scalar(a[1]))
            die("matrix power unsupported in the C runtime");
        ew_op(out, a[0], a[1], MRT_OP_POWER);
        return;
    case MRT_OP_EQ: case MRT_OP_NE: case MRT_OP_LT: case MRT_OP_LE:
    case MRT_OP_GT: case MRT_OP_GE: case MRT_OP_AND: case MRT_OP_OR:
        cmp_op(out, a[0], a[1], id);
        return;
    case MRT_OP_UMINUS: negate(out, a[0]); return;
    case MRT_OP_NOT: cmp_op(out, a[0], mrt_wrap(mrt_numv(0.0)), MRT_OP_EQ); return;
    case MRT_OP_TRANSPOSE: transpose(out, a[0], 0); return;
    case MRT_OP_CTRANSPOSE: transpose(out, a[0], 1); return;
    case MRT_OP_SUBSREF: subsref(out, a[0], argc - 1, &a[1]); return;
    case MRT_OP_RANGE: range_op(out, mrt_scalar(a[0]), 1.0, mrt_scalar(a[1])); return;
    case MRT_OP_RANGE3:
        range_op(out, mrt_scalar(a[0]), mrt_scalar(a[1]), mrt_scalar(a[2]));
        return;
    case MRT_OP_ZEROS: fill_like(out, a, argc, 0.0); return;
    case MRT_OP_ONES: fill_like(out, a, argc, 1.0); return;
    case MRT_OP_EYE: {
        fill_like(out, a, argc, 0.0);
        int m = out->d0 < out->d1 ? out->d0 : out->d1;
        for (int i = 0; i < m; i++) out->re[i + (size_t)out->d0 * i] = 1.0;
        return;
    }
    case MRT_OP_RAND: {
        fill_like(out, a, argc, 0.0);
        size_t n = numel(out);
        for (size_t i = 0; i < n; i++) out->re[i] = next_rand();
        return;
    }
    case MRT_OP_SIZE:
        if (argc >= 2) {
            int k = (int)mrt_scalar(a[1]);
            int d = k == 1 ? a[0]->d0 : (k == 2 ? a[0]->d1 : (k == 3 ? a[0]->d2 : 1));
            set_scalar(out, (double)d);
        } else {
            int rank = a[0]->d2 > 1 ? 3 : 2;
            ensure(out, (size_t)rank, 0);
            out->re[0] = a[0]->d0;
            out->re[1] = a[0]->d1;
            if (rank == 3) out->re[2] = a[0]->d2;
            set_dims(out, 1, rank, 1);
        }
        return;
    case MRT_OP_NUMEL: set_scalar(out, (double)numel(a[0])); return;
    case MRT_OP_LENGTH: {
        int m = a[0]->d0;
        if (a[0]->d1 > m) m = a[0]->d1;
        if (a[0]->d2 > m) m = a[0]->d2;
        set_scalar(out, numel(a[0]) == 0 ? 0.0 : (double)m);
        return;
    }
    case MRT_OP_NDIMS: set_scalar(out, a[0]->d2 > 1 ? 3.0 : 2.0); return;
    case MRT_OP_ISEMPTY: set_scalar(out, numel(a[0]) == 0 ? 1.0 : 0.0); return;
    case MRT_OP_ISTRUE: set_scalar(out, mrt_istrue(a[0]) ? 1.0 : 0.0); return;
    case MRT_OP_RANGE_COUNT:
        set_scalar(out, mrt_range_count(mrt_scalar(a[0]), mrt_scalar(a[1]), mrt_scalar(a[2])));
        return;
    case MRT_OP_LOOP_INDEX:
        set_scalar(out, mrt_loop_index(mrt_scalar(a[0]), mrt_scalar(a[1]), mrt_scalar(a[3])));
        return;
    case MRT_OP_SQRT: apply_map(out, a[0], m_sqrt, 0); return;
    case MRT_OP_ABS: apply_map(out, a[0], m_abs, 1); return;
    case MRT_OP_SIN: apply_map(out, a[0], m_sin, 0); return;
    case MRT_OP_COS: apply_map(out, a[0], m_cos, 0); return;
    case MRT_OP_TAN: apply_map(out, a[0], m_tan, 0); return;
    case MRT_OP_ATAN: apply_map(out, a[0], m_atan, 1); return;
    case MRT_OP_EXP: apply_map(out, a[0], m_exp, 0); return;
    case MRT_OP_LOG: apply_map(out, a[0], m_log, 0); return;
    case MRT_OP_FLOOR: apply_map(out, a[0], m_floor, 0); return;
    case MRT_OP_CEIL: apply_map(out, a[0], m_ceil, 0); return;
    case MRT_OP_ROUND: apply_map(out, a[0], m_round, 0); return;
    case MRT_OP_FIX: apply_map(out, a[0], m_fix, 0); return;
    case MRT_OP_REAL: apply_map(out, a[0], m_real, 1); return;
    case MRT_OP_IMAG: apply_map(out, a[0], m_imag, 1); return;
    case MRT_OP_CONJ: apply_map(out, a[0], m_conj, 0); return;
    case MRT_OP_SIGN: apply_map(out, a[0], m_sign, 0); return;
    case MRT_OP_SUM: sum_op(out, a[0], 0); return;
    case MRT_OP_MEAN: sum_op(out, a[0], 1); return;
    case MRT_OP_MAX: case MRT_OP_MIN:
        if (argc >= 2) ew_real(out, a[0], a[1], id);
        else minmax1(out, NULL, a[0], id == MRT_OP_MAX);
        return;
    /* Real parts only, whatever the operands hold. */
    case MRT_OP_MOD: case MRT_OP_REM: case MRT_OP_ATAN2: ew_real(out, a[0], a[1], id); return;
    case MRT_OP_LINSPACE: {
        double lo = mrt_scalar(a[0]), hi = mrt_scalar(a[1]);
        size_t n = argc >= 3 ? (size_t)mrt_scalar(a[2]) : 100;
        ensure(out, n ? n : 1, 0);
        for (size_t k = 0; k < n; k++) {
            double t = n <= 1 ? 1.0 : (double)k / (double)(n - 1);
            out->re[k] = lo + (hi - lo) * t;
        }
        set_dims(out, 1, (int)n, 1);
        return;
    }
    case MRT_OP_NORM: {
        double acc = 0.0;
        size_t n = numel(a[0]);
        for (size_t i = 0; i < n; i++) {
            double r = a[0]->re[i], m = elem_im(a[0], i);
            acc += r * r + m * m;
        }
        set_scalar(out, sqrt(acc));
        return;
    }
    case MRT_OP_PI: set_scalar(out, 3.14159265358979323846); return;
    case MRT_OP_INF: set_scalar(out, 1.0 / 0.0); return;
    case MRT_OP_NAN: set_scalar(out, 0.0 / 0.0); return;
    case MRT_OP_EPS: set_scalar(out, 2.220446049250313e-16); return;
    case MRT_OP_PROD: {
        size_t cols, len;
        reduce_geometry(a[0], &cols, &len);
        ensure(out, cols ? cols : 1, 0);
        for (size_t c = 0; c < cols; c++) {
            double p = 1.0;
            for (size_t k = 0; k < len; k++) p *= a[0]->re[c * len + k];
            out->re[c] = p;
        }
        set_dims(out, 1, (int)cols, 1);
        return;
    }
    case MRT_OP_ANY: case MRT_OP_ALL: {
        int want_all = id == MRT_OP_ALL;
        size_t cols, len;
        reduce_geometry(a[0], &cols, &len);
        ensure(out, cols ? cols : 1, 0);
        for (size_t c = 0; c < cols; c++) {
            int acc = want_all ? 1 : 0;
            for (size_t k = 0; k < len; k++) {
                int nz = a[0]->re[c * len + k] != 0.0 || elem_im(a[0], c * len + k) != 0.0;
                if (want_all) acc = acc && nz;
                else acc = acc || nz;
            }
            out->re[c] = acc ? 1.0 : 0.0;
        }
        set_dims(out, 1, (int)cols, 1);
        return;
    }
    default: /* effects and subsasgn never reach here */
        die("operation is not a value");
    }
}

/* Whether writing dst could clobber an operand before it is read: the
 * same handle, or another handle over the same buffer (slots the plan
 * coalesced, e.g. `r = r*r` or `x = x(idx)`). */
static int aliases(const mrt_val *dst, const mrt_val *const *args, int argc) {
    for (int i = 0; i < argc; i++) {
        const mrt_val *a = args[i];
        if (a == dst || (a && a->re && a->re == dst->re)) return 1;
    }
    return 0;
}

void mrt_op(mrt_val *dst, int op, int argc, ...) {
    const mrt_val *args[MAXARGS];
    if (argc > MAXARGS) die("too many varargs operands (codegen should emit mrt_opv)");
    va_list ap;
    va_start(ap, argc);
    for (int i = 0; i < argc && i < MAXARGS; i++)
        args[i] = va_arg(ap, const mrt_val *);
    va_end(ap);
    mrt_opv(dst, op, argc, args);
}

/* §2.3's in-place rule for a dst that shares storage with an operand:
 * real `+ - .* ./`, and `*` or `/` against a scalar, are computed by
 * ew_real straight into dst, the bits dispatch would give. It holds
 * when the operands are real and conform, dst has the capacity for the
 * result (so no realloc moves the buffer under an operand), and every
 * operand over dst's buffer has the result's element count, so element
 * i is read before it is written and by no later element (not so for
 * `s = s + A` with s scalar, which takes the spare). Returns 0, having
 * changed nothing, when it does not hold. */
static int ew_in_place(mrt_val *dst, int op, int argc, const mrt_val *const *args) {
    if (argc != 2) return 0;
    const mrt_val *a = args[0], *b = args[1];
    int id = op;
    switch (op) {
    case MRT_OP_ADD: case MRT_OP_SUB: case MRT_OP_TIMES: case MRT_OP_RDIVIDE: break;
    case MRT_OP_MTIMES:
        if (!is_scalar(a) && !is_scalar(b)) return 0;
        id = MRT_OP_TIMES;
        break;
    case MRT_OP_MRDIVIDE:
        if (!is_scalar(b)) return 0;
        id = MRT_OP_RDIVIDE;
        break;
    default: return 0;
    }
    if (a->im || b->im) return 0;
    if (!is_scalar(a) && !is_scalar(b) && (a->d0 != b->d0 || a->d1 != b->d1 || a->d2 != b->d2))
        return 0;
    size_t n = numel(is_scalar(a) ? b : a);
    if (n > dst->cap) return 0;
    for (int i = 0; i < 2; i++) {
        const mrt_val *x = args[i];
        if ((x == dst || (x->re && x->re == dst->re)) && numel(x) != n) return 0;
    }
    ew_real(dst, a, b, id);
    drop_im(dst);
    dst->is_char = 0;
    return 1;
}

/* Runtime-owned scratch results, for a dst that aliases an operand and
 * for multi-output calls: each grows as needed and is reused, so no
 * call pays an allocation once it has reached its size. */
static mrt_val spare[2];

/* Takes spare[k] for a fresh result (real, non-char, 0x0). */
static mrt_val *take_spare(int k) {
    reset(&spare[k]);
    return &spare[k];
}

void mrt_opv(mrt_val *dst, int op, int argc, const mrt_val *const *args) {
    switch (op) {
    case MRT_OP_FPRINTF: do_fprintf(args, argc); return;
    case MRT_OP_DISP:
        if (argc >= 1) display_body(args[0]);
        return;
    case MRT_OP_ERROR:
        fprintf(stderr, "error raised\n");
        exit(69);
    case MRT_OP_SUBSASGN:
        /* Grows in place within dst's own buffer when the plan
         * coalesced base and result. */
        subsasgn(dst ? dst : take_spare(0), args[0], args[1], argc - 2, &args[2]);
        return;
    }
    if (op < 0 || op >= MRT_OP_COUNT) {
        fprintf(stderr, "mrt: unimplemented operation #%d\n", op);
        exit(70);
    }
    /* The result goes straight into dst's planned storage; only a
     * missing dst or one sharing storage with an operand takes the
     * spare result, which is then copied in, unless the op can run in
     * place. */
    if (dst && !aliases(dst, args, argc)) {
        reset(dst);
        dispatch(dst, op, args, argc);
        return;
    }
    if (dst && ew_in_place(dst, op, argc, args)) return;
    mrt_val *scr = take_spare(0);
    dispatch(scr, op, args, argc);
    if (dst) assign(dst, scr);
}

void mrt_concat(mrt_val *dst, int nrows, const int *rows, int argc,
                const mrt_val *const *args) {
    mrt_val *out = aliases(dst, args, argc) ? take_spare(0) : dst;
    if (out == dst) reset(dst);
    do_concat(out, nrows, rows, args, argc);
    if (out != dst) assign(dst, out);
}

static int call_depth;
void mrt_enter(void) {
    if (++call_depth > 100) die("maximum recursion depth exceeded");
}
void mrt_leave(void) { call_depth--; }

double mrt_range_count(double x, double s, double y) {
    if (s == 0.0) die("invalid for-loop range");
    double c = floor((y - x) / s) + 1.0;
    return c > 0.0 ? c : 0.0;
}

void mrt_index_error(const mrt_val *a, int n, double i, double j, double k) {
    mrt_val subs[3], *out = take_spare(0);
    const mrt_val *refs[3] = {&subs[0], &subs[1], &subs[2]};
    double at[3] = {i, j, k};
    for (int d = 0; d < n && d < 3; d++) {
        mrt_bind(&subs[d], &at[d], 1);
        set_dims(&subs[d], 1, 1, 1);
    }
    subsref(out, a, n, refs); /* raises the error */
    die("scalar subscript selected no element");
}

void mrt_multi(int op, int argc, ...) {
    const mrt_val *args[MAXARGS];
    mrt_val *outs[MAXARGS];
    if (argc > MAXARGS) die("too many operands (raise MAXARGS)");
    va_list ap;
    va_start(ap, argc);
    for (int i = 0; i < argc && i < MAXARGS; i++)
        args[i] = va_arg(ap, const mrt_val *);
    int noutc = va_arg(ap, int);
    for (int i = 0; i < noutc && i < MAXARGS; i++)
        outs[i] = va_arg(ap, mrt_val *);
    va_end(ap);

    if (op == MRT_OP_SIZE) {
        /* Extents are read before any output (which may be the
         * operand) is written. */
        int d[3] = {args[0]->d0, args[0]->d1, args[0]->d2};
        for (int k = 0; k < noutc; k++) {
            double x = k < 3 ? (double)d[k] : 1.0;
            if (k + 1 == noutc)
                for (int j = k + 1; j < 3; j++) x *= (double)d[j];
            reset(outs[k]);
            set_scalar(outs[k], x);
        }
        return;
    }
    if (op == MRT_OP_MAX || op == MRT_OP_MIN) {
        mrt_val *vals = take_spare(0), *idxs = take_spare(1);
        minmax1(vals, idxs, args[0], op == MRT_OP_MAX);
        assign(outs[0], vals);
        if (noutc > 1) assign(outs[1], idxs);
        return;
    }
    fprintf(stderr, "mrt: unimplemented multi-output operation #%d\n", op);
    exit(70);
}
