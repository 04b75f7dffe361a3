/* mrt_contract.c — checks the mrt runtime's result convention through
 * its public interface.
 *
 *   mrt_contract          run every case; print one FAIL line per
 *                         mismatch and a closing summary line
 *   mrt_contract plan     overflow a fixed slot (must exit 70)
 *   mrt_contract unknown  call an unknown op (must exit 70)
 *
 * Each op runs four ways: into a distinct heap dst, into a distinct
 * fixed (frame-bound) dst, into dst == operand 0, and into another
 * handle over operand 0's fixed buffer. All four results must agree in
 * values, dims, presence of an imaginary part and char class.
 */
#include "mrt.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define CAP 64

static int cases = 0, failures = 0;

/* A heap-owned value with the given contents (im may be NULL). */
static mrt_val make(int d0, int d1, const double *re, const double *im, int is_char) {
    size_t n = (size_t)d0 * (size_t)d1;
    mrt_val v;
    mrt_bind(&v, NULL, 0);
    v.re = (double *)malloc((n ? n : 1) * sizeof(double));
    memcpy(v.re, re, n * sizeof(double));
    if (im) {
        v.im = (double *)malloc((n ? n : 1) * sizeof(double));
        memcpy(v.im, im, n * sizeof(double));
    }
    v.cap = n ? n : 1;
    v.d0 = d0;
    v.d1 = d1;
    v.d2 = 1;
    v.is_char = is_char;
    return v;
}

/* Empty string when a and b hold the same value (or, with re_only, the
 * same real parts), else what differs. */
static const char *differs(const mrt_val *a, const mrt_val *b, int re_only) {
    if (a->d0 != b->d0 || a->d1 != b->d1 || a->d2 != b->d2) return "dims";
    if (a->is_char != b->is_char) return "is_char";
    size_t n = MRT_NUMEL(*a);
    if (n && memcmp(a->re, b->re, n * sizeof(double))) return "real parts";
    if (re_only) return "";
    if ((a->im == NULL) != (b->im == NULL)) return "imaginary part presence";
    if (n && a->im && memcmp(a->im, b->im, n * sizeof(double))) return "imaginary parts";
    return "";
}

static void check_parts(const char *what, const char *how, const mrt_val *want,
                        const mrt_val *got, int re_only) {
    const char *d = differs(want, got, re_only);
    cases++;
    if (*d) {
        failures++;
        printf("FAIL %s (%s): %s differ\n", what, how, d);
    }
}

static void check(const char *what, const char *how, const mrt_val *want, const mrt_val *got) {
    check_parts(what, how, want, got, 0);
}

/* Runs op on args four ways (see the header) and compares. */
static void differential(const char *op, int argc, const mrt_val *const *args) {
    const mrt_val *aliased[8];
    mrt_val want, fixed, self, other, view;
    double fixed_buf[CAP], self_buf[CAP];

    mrt_bind(&want, NULL, 0);
    mrt_opv(&want, op, argc, args);

    mrt_bind(&fixed, fixed_buf, CAP);
    mrt_opv(&fixed, op, argc, args);
    check(op, "distinct fixed dst", &want, &fixed);

    memcpy(aliased, args, (size_t)argc * sizeof(*args));
    mrt_bind(&self, NULL, 0);
    mrt_op(&self, "copy", 1, args[0]);
    aliased[0] = &self;
    mrt_opv(&self, op, argc, aliased);
    check(op, "dst is operand 0", &want, &self);

    mrt_bind(&other, self_buf, CAP);
    mrt_op(&other, "copy", 1, args[0]);
    mrt_bind(&view, self_buf, CAP);
    aliased[0] = &other;
    mrt_opv(&view, op, argc, aliased);
    check(op, "dst shares operand 0's buffer", &want, &view);

    mrt_free(&want);
    mrt_free(&self);
}

#define RUN(op, ...)                                                   \
    do {                                                               \
        const mrt_val *args_[] = {__VA_ARGS__};                        \
        differential(op, (int)(sizeof args_ / sizeof *args_), args_);  \
    } while (0)

int main(int argc, char **argv) {
    static const double are[] = {4, -1, 0, 2.5, -9, 3};
    static const double bre[] = {2, 0, -3, 2.5, 7, 0.5};
    static const double cre[] = {1, 0, 2, -1, 0.5, 3};
    static const double zre[] = {1, 2, 0, -1, 3, 4}, zim[] = {1, 0, -2, 5, 0, 1};
    static const double text[] = {'m', 'r', 't'};
    static const double idx1[] = {6, 1, 3, 3};
    static const double idx2[] = {2, 1};
    mrt_val a = make(2, 3, are, NULL, 0);  /* 2x3 real, with negatives */
    mrt_val b = make(2, 3, bre, NULL, 0);  /* 2x3 real, with zeros */
    mrt_val c = make(3, 2, cre, NULL, 0);  /* 3x2 real, for a * c */
    mrt_val z = make(2, 3, zre, zim, 0);   /* 2x3 complex */
    mrt_val s = make(1, 3, text, NULL, 1); /* 'mrt' */
    mrt_val i1 = make(1, 4, idx1, NULL, 0);
    mrt_val i2 = make(1, 2, idx2, NULL, 0);
    const mrt_val *two = mrt_wrap(mrt_numv(2.0));
    const mrt_val *half = mrt_wrap(mrt_numv(0.5));

    if (argc > 1 && !strcmp(argv[1], "plan")) {
        double small[2];
        mrt_val d;
        mrt_bind(&d, small, 2);
        mrt_op(&d, "zeros", 2, two, two);
        printf("a 2x2 result fit a 2-element fixed slot\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "unknown")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, "frobnicate", 1, &a);
        printf("an unknown op returned\n");
        return 0;
    }

    RUN("bin_add", &a, &b);
    RUN("bin_add", &a, two);
    RUN("bin_add", &z, &a);
    RUN("bin_sub", &a, &b);
    RUN("bin_times", &a, &b);
    RUN("bin_times", &z, &z);
    RUN("bin_rdivide", &a, &b);
    RUN("bin_rdivide", &z, &a);
    RUN("bin_power", &a, half);
    RUN("bin_power", &a, two);
    RUN("bin_lt", &a, &b);
    RUN("bin_eq", &z, &z);
    RUN("bin_mtimes", &a, &c);
    RUN("bin_mtimes", &z, &c);
    RUN("bin_mtimes", two, &a);
    RUN("un_transpose", &a);
    RUN("un_ctranspose", &z);
    RUN("subsref", &a, &i1);
    RUN("subsref", &a, &i2, MRT_COLON);
    RUN("subsref", &z, MRT_COLON, &i2);
    RUN("subsref", &s, &i2);
    RUN("copy", &s);
    RUN("copy", &z);
    RUN("sum", &a);
    RUN("sum", &z);
    RUN("max", &a);
    RUN("max", &a, &b);
    RUN("mod", &a, &b);
    RUN("sqrt", &a);
    RUN("concat:2", &a, &b);

    /* A dst that held a complex or char value gets a clean real result,
     * on the heap and in a frame buffer. */
    mrt_val want, d;
    double buf[CAP];
    mrt_bind(&want, NULL, 0);
    mrt_op(&want, "bin_add", 2, &a, &b);
    const mrt_val *held[] = {&z, &s};
    for (int k = 0; k < 2; k++) {
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, "copy", 1, held[k]);
        mrt_op(&d, "bin_add", 2, &a, &b);
        check("reset", k ? "heap dst held a char" : "heap dst held a complex", &want, &d);
        mrt_free(&d);
        mrt_bind(&d, buf, CAP);
        mrt_op(&d, "copy", 1, held[k]);
        mrt_op(&d, "bin_add", 2, &a, &b);
        check("reset", k ? "fixed dst held a char" : "fixed dst held a complex", &want, &d);
    }

    /* A concat:<rows> name still dispatches: [1 2; 3 4]. */
    static const double grid[] = {1, 3, 2, 4};
    mrt_val g = make(2, 2, grid, NULL, 0);
    mrt_op(&d, "concat:2,2", 4, mrt_wrap(mrt_numv(1)), mrt_wrap(mrt_numv(2)),
           mrt_wrap(mrt_numv(3)), mrt_wrap(mrt_numv(4)));
    check("concat:2,2", "grid literal", &g, &d);

    /* The real fast paths compute the complex kernels' real parts bit
     * for bit when the imaginary parts are all zero (a complex x./0 also
     * has a NaN imaginary part, which the real path never had). */
    static const double none[6] = {0};
    static const char *const kernels[] = {
        "bin_add", "bin_sub", "bin_times", "bin_rdivide", "bin_eq", "bin_ne",
        "bin_lt", "bin_le", "bin_gt", "bin_ge", "bin_and", "bin_or",
    };
    mrt_val bz = make(2, 3, bre, none, 0), cz = make(3, 2, cre, none, 0), got;
    mrt_bind(&got, NULL, 0);
    for (size_t k = 0; k < sizeof kernels / sizeof *kernels; k++) {
        mrt_op(&want, kernels[k], 2, &a, &b);
        mrt_op(&got, kernels[k], 2, &a, &bz);
        check_parts(kernels[k], "real vs complex kernel", &want, &got, 1);
        mrt_op(&want, kernels[k], 2, &b, &a);
        mrt_op(&got, kernels[k], 2, &bz, &a);
        check_parts(kernels[k], "real vs complex kernel, swapped", &want, &got, 1);
    }
    mrt_op(&want, "bin_mtimes", 2, &a, &c);
    mrt_op(&got, "bin_mtimes", 2, &a, &cz);
    check_parts("bin_mtimes", "real vs complex kernel", &want, &got, 1);

    mrt_val *owned[] = {&a, &b, &c, &z, &s, &i1, &i2, &g, &want, &bz, &cz, &got};
    for (size_t k = 0; k < sizeof owned / sizeof *owned; k++) mrt_free(owned[k]);
    printf("contract: %d case(s), %d failure(s)\n", cases, failures);
    return failures != 0;
}
