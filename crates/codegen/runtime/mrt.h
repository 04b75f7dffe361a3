/* mrt.h — the mat2c support runtime interface.
 *
 * The generated C manipulates `mrt_val` handles: a buffer of doubles
 * (plus an optional imaginary buffer), the current extents, and a
 * capacity. Stack groups bind fixed frame buffers (growth beyond the
 * planned capacity aborts — a storage-plan violation); heap groups
 * start unbound and are allocated/resized by the runtime.
 *
 * Variables that inference proves real 1x1 scalars are computed as C
 * doubles at slotN[0] of their frame buffer; the scalar kernels below
 * are the one definition both that code and mrt.c's real loops use.
 */
#ifndef MRT_H
#define MRT_H

#include <math.h>
#include <stddef.h>

typedef struct {
    double *re;   /* element buffer (column-major)            */
    double *im;   /* imaginary parts, or NULL when real       */
    int d0, d1, d2; /* extents (d2 == 1 for 2-D values)        */
    size_t cap;   /* element capacity of `re` (and `im`)      */
    int fixed;    /* 1: `re` is a frame buffer, never realloc */
    int is_char;  /* char-class data (string literals)        */
} mrt_val;

/* A compile-time immediate: number, imaginary number, string or []. */
typedef struct {
    int tag;          /* 0 num, 1 imag, 2 str, 3 empty */
    double num;
    const char *str;
} mrt_imm;

#define mrt_numv(x)  ((mrt_imm){0, (x), 0})
#define mrt_imagv(x) ((mrt_imm){1, (x), 0})
#define mrt_strv(s)  ((mrt_imm){2, 0.0, (s)})
#define mrt_emptyv() ((mrt_imm){3, 0.0, 0})

#define MRT_NUMEL(v) ((size_t)(v).d0 * (size_t)(v).d1 * (size_t)(v).d2)
#define MRT_COLON   ((const mrt_val *)0)
#define MRT_NEEDED  ((size_t)0) /* resize guards are bookkeeping hints */

/* Every operation mrt_op accepts, by id. The emitter resolves op names
 * to these ids, so a call carries no name to look up. */
enum {
    MRT_OP_FPRINTF, MRT_OP_DISP, MRT_OP_ERROR, MRT_OP_SUBSASGN, MRT_OP_COPY,
    MRT_OP_ADD, MRT_OP_SUB, MRT_OP_TIMES, MRT_OP_MTIMES, MRT_OP_RDIVIDE,
    MRT_OP_LDIVIDE, MRT_OP_MRDIVIDE, MRT_OP_MLDIVIDE, MRT_OP_POWER,
    MRT_OP_MPOWER, MRT_OP_EQ, MRT_OP_NE, MRT_OP_LT, MRT_OP_LE, MRT_OP_GT,
    MRT_OP_GE, MRT_OP_AND, MRT_OP_OR, MRT_OP_UMINUS, MRT_OP_UPLUS,
    MRT_OP_NOT, MRT_OP_TRANSPOSE, MRT_OP_CTRANSPOSE, MRT_OP_SUBSREF,
    MRT_OP_RANGE, MRT_OP_RANGE3, MRT_OP_ZEROS, MRT_OP_ONES, MRT_OP_EYE,
    MRT_OP_RAND, MRT_OP_SIZE, MRT_OP_NUMEL, MRT_OP_LENGTH, MRT_OP_NDIMS,
    MRT_OP_ISEMPTY, MRT_OP_ISTRUE, MRT_OP_RANGE_COUNT, MRT_OP_LOOP_INDEX,
    MRT_OP_SQRT, MRT_OP_ABS, MRT_OP_SIN, MRT_OP_COS, MRT_OP_TAN,
    MRT_OP_ATAN, MRT_OP_EXP, MRT_OP_LOG, MRT_OP_FLOOR, MRT_OP_CEIL,
    MRT_OP_ROUND, MRT_OP_FIX, MRT_OP_REAL, MRT_OP_IMAG, MRT_OP_CONJ,
    MRT_OP_SIGN, MRT_OP_SUM, MRT_OP_MEAN, MRT_OP_MAX, MRT_OP_MIN,
    MRT_OP_MOD, MRT_OP_REM, MRT_OP_ATAN2, MRT_OP_LINSPACE, MRT_OP_NORM,
    MRT_OP_PI, MRT_OP_INF, MRT_OP_NAN, MRT_OP_EPS, MRT_OP_PROD,
    MRT_OP_ANY, MRT_OP_ALL,
    MRT_OP_COUNT
};

/* Binds a value to a frame buffer of `cap` elements (NULL, 0 = heap). */
void mrt_bind(mrt_val *v, double *buf, size_t cap);
/* Releases a heap-bound value's storage. */
void mrt_free(mrt_val *v);
/* Resize guards emitted for the plan's +- / + annotations (hints; the
 * runtime manages capacity per operation). */
void mrt_resize(mrt_val *v, size_t bytes);
void mrt_grow(mrt_val *v, size_t bytes);
/* Executes one library operation: dst <- op(arg1..argN), op an
 * MRT_OP_* id. Arguments are `const mrt_val *` (MRT_COLON marks `:`
 * subscripts). */
void mrt_op(mrt_val *dst, int op, int argc, ...);
/* Array-argument form of mrt_op, for operand counts beyond the varargs
 * convenience limit (e.g. wide matrix literals). */
void mrt_opv(mrt_val *dst, int op, int argc, const mrt_val *const *args);
/* Matrix literal [a b; c d]: row k holds rows[k] of the argc operands
 * (empty operands are skipped; all-empty rows yield 0x0). */
void mrt_concat(mrt_val *dst, int nrows, const int *rows, int argc,
                const mrt_val *const *args);
/* Multi-output library call (MRT_OP_SIZE, _MAX, _MIN):
 * op(args...) -> (out1..outM). */
void mrt_multi(int op, int argc, ... /* args, int noutc, outs */);
/* Materializes an immediate as a value (rotating temporary pool). */
const mrt_val *mrt_wrap(mrt_imm imm);
/* Scalar accessors. */
double mrt_scalar(const mrt_val *v);
int mrt_istrue(const mrt_val *v);
/* `x = ...` echo of non-semicolon statements. */
void mrt_display(const char *name, const mrt_val *v);
/* The trip count of a for loop over x:s:y (exits 70 when s is 0). */
double mrt_range_count(double x, double s, double y);
/* Entry and exit of every emitted function: past MATLAB's
 * RecursionLimit (100) frames deep, the entry function's included,
 * exits 70. */
void mrt_enter(void);
void mrt_leave(void);
/* Exits 70 with the error a(i[, j[, k]]) raises when the subscripts do
 * not select one element of a. */
void mrt_index_error(const mrt_val *a, int n, double i, double j, double k);

/* ------------------------------------------------------------------ */
/* Scalar kernels: the real branch of each elementwise operation, used
 * by the generated C for typed scalars and by mrt.c's real loops, so
 * both print the same digits. `./` keeps the complex kernel's `+ 0*0`
 * terms (they decide the sign of zero quotients and make x./0 NaN).  */

static inline double mrt_rdiv(double x, double y) { return (x * y + 0.0) / (y * y + 0.0); }
static inline double mrt_mod(double x, double y) { return y == 0.0 ? x : x - y * floor(x / y); }
static inline double mrt_rem(double x, double y) {
    return y == 0.0 ? (0.0 / 0.0) : x - y * trunc(x / y);
}
static inline double mrt_max2(double x, double y) { return (x > y || isnan(y)) ? x : y; }
static inline double mrt_min2(double x, double y) { return (x < y || isnan(y)) ? x : y; }
static inline double mrt_round(double x) { return x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5); }
static inline double mrt_sign(double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }
/* The k-th value (1-based) of a for loop starting at st by sp. */
static inline double mrt_loop_index(double st, double sp, double k) { return st + sp * (k - 1.0); }

/* Stores the real scalar x as v's value (1x1, real, not char); v is
 * bound to a frame buffer, so its element 0 exists. */
static inline void mrt_put(mrt_val *v, double x) {
    v->re[0] = x;
    v->im = NULL;
    v->d0 = 1; v->d1 = 1; v->d2 = 1;
    v->is_char = 0;
}

/* dst <- src for a 1x1 real src (keeps its char class). */
static inline void mrt_copy1(mrt_val *dst, const mrt_val *src) {
    double x = src->re[0];
    int c = src->is_char;
    mrt_put(dst, x);
    dst->is_char = c;
}

/* The element offset that n (1..3) scalar subscripts select in v, with
 * trailing extents folded as indexing folds them, or -1 when a
 * subscript is not a positive integer within its extent (the index
 * plan then runs and raises the error). */
static inline ptrdiff_t mrt_offset(const mrt_val *v, int n, double i, double j, double k) {
    double e0 = n == 1 ? (double)v->d0 * v->d1 * v->d2 : (double)v->d0;
    double e1 = n == 2 ? (double)v->d1 * v->d2 : (double)v->d1;
    if (!(i >= 1.0 && i <= e0) || i != floor(i)) return -1;
    ptrdiff_t off = (ptrdiff_t)i - 1;
    if (n >= 2) {
        if (!(j >= 1.0 && j <= e1) || j != floor(j)) return -1;
        off += ((ptrdiff_t)j - 1) * (ptrdiff_t)e0;
    }
    if (n >= 3) {
        if (!(k >= 1.0 && k <= (double)v->d2) || k != floor(k)) return -1;
        off += ((ptrdiff_t)k - 1) * (ptrdiff_t)e0 * (ptrdiff_t)e1;
    }
    return off;
}

/* dst <- a(i[, j[, k]]) for scalar subscripts into a real a. */
static inline void mrt_elem_get(mrt_val *dst, const mrt_val *a, int n, double i, double j,
                                double k) {
    ptrdiff_t at = mrt_offset(a, n, i, j, k);
    if (at < 0) mrt_index_error(a, n, i, j, k);
    double x = a->re[at];
    int c = a->is_char;
    mrt_put(dst, x);
    dst->is_char = c;
}

/* d(i[, j[, k]]) = x in place when the subscripts select an element of
 * d; returns 0 (storing nothing) when the assignment must grow d or
 * raise an error, which the generic subsasgn then does. */
static inline int mrt_elem_set(mrt_val *d, int n, double i, double j, double k, double x) {
    ptrdiff_t at = mrt_offset(d, n, i, j, k);
    if (at < 0) return 0;
    d->re[at] = x;
    if (d->im) d->im[at] = 0.0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Shadow probes (emitted only with probes enabled; zero-cost when no
 * calls are generated). Counters accumulate per (func, slot): binds,
 * definitions by resize kind (0 `o`, 1 `+`, 2 `+-`), peak payload
 * bytes, last-use tick and frees. `mrt_probe_report` prints the table
 * to stderr so differential harnesses can diff it against the plan. */
void mrt_probe_bind(int func, int slot, int is_stack, size_t cap_bytes);
void mrt_probe_def(int func, int slot, int resize_kind, size_t bytes);
void mrt_probe_free(int func, int slot);
void mrt_probe_report(void);

#endif /* MRT_H */
