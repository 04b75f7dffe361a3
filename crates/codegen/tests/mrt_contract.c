/* mrt_contract.c — checks the mrt runtime's result convention through
 * its public interface.
 *
 *   mrt_contract          run every case; print one FAIL line per
 *                         mismatch and a closing summary line
 *   mrt_contract plan     overflow a fixed slot (must exit 70)
 *   mrt_contract unknown  call an unknown op (must exit 70)
 *   mrt_contract order    a(5, 0.5) on a 2x2 array (must exit 70 with
 *                         the positive-integer error, not the extent
 *                         error)
 *   mrt_contract asgnorder  a(0.5, [2 1]) = four values (must exit 70
 *                         with the positive-integer error, not the
 *                         value count error)
 *   mrt_contract extent   a(5, 1) on a 2x2 array (must exit 70)
 *
 * Each op runs four ways: into a distinct heap dst, into a distinct
 * fixed (frame-bound) dst, into dst == operand 0, and into another
 * handle over operand 0's fixed buffer. All four results must agree in
 * values, dims, presence of an imaginary part and char class. Index
 * cases also compare against hand-computed results.
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

/* A heap-owned real d0 x d1 x d2 value with the given contents. */
static mrt_val shaped(int d0, int d1, int d2, const double *re) {
    mrt_val v = make(d0, d1 * d2, re, NULL, 0);
    v.d1 = d1;
    v.d2 = d2;
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

/* Checks that got holds exactly the real d0 x d1 x d2 value re. */
static void expect(const char *what, const mrt_val *got, int d0, int d1, int d2,
                   const double *re) {
    mrt_val want = shaped(d0, d1, d2, re);
    check(what, "expected value", &want, got);
    mrt_free(&want);
}

/* An index plan case: subsref(args...) agrees four ways (see RUN) and
 * equals the hand-computed d0 x d1 x d2 value. */
#define INDEX(what, d0, d1, d2, want, ...)                              \
    do {                                                                \
        const mrt_val *args_[] = {__VA_ARGS__};                         \
        int argc_ = (int)(sizeof args_ / sizeof *args_);                \
        mrt_val got_;                                                   \
        differential("subsref", argc_, args_);                          \
        mrt_bind(&got_, NULL, 0);                                       \
        mrt_opv(&got_, "subsref", argc_, args_);                        \
        expect(what, &got_, d0, d1, d2, want);                          \
        mrt_free(&got_);                                                \
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
    /* Subscript errors: every subscript must be a positive integer
     * before any extent or value count is checked (a(5, 0.5) on a 2x2
     * array and a(0.5, 1:2) = [1 2 3]). */
    if (argc > 1 && !strcmp(argv[1], "order")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, "zeros", 2, two, two);
        mrt_op(&d, "subsref", 3, &d, mrt_wrap(mrt_numv(5.0)), half);
        printf("a(5, 0.5) returned\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "asgnorder")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, "zeros", 2, two, two);
        mrt_op(&d, "subsasgn", 4, &d, &i1, half, &i2);
        printf("a(0.5, [2 1]) = 4 values returned\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "extent")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, "zeros", 2, two, two);
        mrt_op(&d, "subsref", 3, &d, mrt_wrap(mrt_numv(5.0)), mrt_wrap(mrt_numv(1.0)));
        printf("a(5, 1) returned\n");
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

    /* Index plans (DESIGN.md §17) on m = reshape(1:12, 3, 4) and
     * q = reshape(1:12, 2, 3, 2). */
    static const double twelve[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    static const double r23[] = {2, 3}, r234[] = {2, 3, 4}, r13[] = {1, 3};
    static const double r321[] = {3, 2, 1}, r12_10[] = {12, 11, 10};
    static const double rep[] = {2, 2, 1}, perm[] = {4, 1}, r246[] = {2, 4, 6};
    mrt_val m = shaped(3, 4, 1, twelve), q = shaped(2, 3, 2, twelve);
    mrt_val s23 = make(1, 2, r23, NULL, 0), s234 = make(1, 3, r234, NULL, 0);
    mrt_val s13 = make(1, 2, r13, NULL, 0), s321 = make(1, 3, r321, NULL, 0);
    mrt_val s12_10 = make(1, 3, r12_10, NULL, 0), srep = make(1, 3, rep, NULL, 0);
    mrt_val sperm = make(1, 2, perm, NULL, 0), s246 = make(1, 3, r246, NULL, 0);
    mrt_val s123 = make(1, 3, twelve, NULL, 0), none1 = make(1, 0, twelve, NULL, 0);
    const mrt_val *one = mrt_wrap(mrt_numv(1.0)), *four = mrt_wrap(mrt_numv(4.0));
    {
        static const double col2[] = {4, 5, 6}, block[] = {5, 6, 8, 9, 11, 12};
        static const double odd_rows[] = {1, 3, 4, 6, 7, 9, 10, 12};
        static const double rev[] = {3, 2, 1}, back[] = {12, 11, 10};
        static const double pick[] = {11, 11, 10, 2, 2, 1};
        static const double page[] = {8, 10, 12}, mid[] = {3, 4, 9, 10};
        static const double folded[] = {3, 7, 11}, all[] = {0};
        INDEX("colon", 3, 1, 1, col2, &m, MRT_COLON, two);
        INDEX("unit-step ranges", 2, 3, 1, block, &m, &s23, &s234);
        INDEX("non-unit step", 2, 4, 1, odd_rows, &m, &s13, MRT_COLON);
        INDEX("negative step", 3, 1, 1, rev, &m, &s321, one);
        INDEX("negative step, linear", 1, 3, 1, back, &m, &s12_10);
        INDEX("repeated and permuted", 3, 2, 1, pick, &m, &srep, &sperm);
        INDEX("empty range", 0, 4, 1, all, &m, &none1, MRT_COLON);
        INDEX("empty range, last dim", 3, 0, 1, all, &m, MRT_COLON, &none1);
        INDEX("3-D", 1, 3, 1, page, &q, two, &s123, two);
        INDEX("3-D colons", 2, 1, 2, mid, &q, MRT_COLON, two, MRT_COLON);
        INDEX("trailing dims collapse", 1, 3, 1, folded, &q, one, &s246);
        INDEX("trailing dims collapse, scalar", 1, 1, 1, &twelve[7], &q, two, four);
    }

    /* Scalar subscripts skip the plan: a complex element read, a real
     * element stored into a complex array and an imaginary one into a
     * real array. */
    {
        static const double zr[] = {0}, zi[] = {-2};
        static const double wre[] = {1, 2, 2, -1, 3, 4}, wim[] = {1, 0, 0, 5, 0, 1};
        static const double vre[] = {4, 0, 0, 2.5, -9, 3}, vim[] = {0, 1, 0, 0, 0, 0};
        mrt_val elem = make(1, 1, zr, zi, 0), wz = make(2, 3, wre, wim, 0);
        mrt_val va = make(2, 3, vre, vim, 0), w;
        RUN("subsref", &z, one, two);
        mrt_bind(&w, NULL, 0);
        mrt_op(&w, "subsref", 3, &z, one, two);
        check("scalar subsref", "complex element", &elem, &w);
        mrt_op(&w, "subsasgn", 4, &z, two, one, two);
        check("scalar subsasgn", "real into complex", &wz, &w);
        mrt_op(&w, "subsasgn", 4, &a, mrt_wrap(mrt_imagv(1.0)), two, one);
        check("scalar subsasgn", "imaginary into real", &va, &w);
        mrt_val *tmp[] = {&elem, &wz, &va, &w};
        for (size_t k = 0; k < sizeof tmp / sizeof *tmp; k++) mrt_free(tmp[k]);
    }

    /* Growth through a range: g(1:3, 3) = [5 6 7] on [1 3; 2 4], and
     * v(4:5) = 9 on [1 2]; then the self-overlapping row shift
     * m(2:3, :) = m(1:2, :) in m's own slot. */
    {
        static const double g22[] = {1, 2, 3, 4}, vals[] = {5, 6, 7}, row[] = {1, 2};
        static const double grown[] = {1, 2, 0, 3, 4, 0, 5, 6, 7};
        static const double r45[] = {4, 5}, appended[] = {1, 2, 0, 9, 9};
        static const double shifted[] = {1, 1, 2, 4, 4, 5, 7, 7, 8, 10, 10, 11};
        static const double r12[] = {1, 2};
        mrt_val g = make(2, 2, g22, NULL, 0), r = make(1, 3, vals, NULL, 0);
        mrt_val s45 = make(1, 2, r45, NULL, 0);
        mrt_val v = make(1, 2, row, NULL, 0), s12 = make(1, 2, r12, NULL, 0), t;
        mrt_op(&g, "subsasgn", 4, &g, &r, &s123, mrt_wrap(mrt_numv(3.0)));
        expect("growth through a range", &g, 3, 3, 1, grown);
        mrt_op(&v, "subsasgn", 3, &v, mrt_wrap(mrt_numv(9.0)), &s45);
        expect("linear growth through a range", &v, 1, 5, 1, appended);
        mrt_bind(&t, NULL, 0);
        mrt_op(&t, "subsref", 3, &m, &s12, MRT_COLON);
        mrt_op(&m, "subsasgn", 4, &m, &t, &s23, MRT_COLON);
        expect("self-overlapping shift", &m, 3, 4, 1, shifted);
        mrt_val *tmp[] = {&g, &r, &s45, &v, &s12, &t};
        for (size_t k = 0; k < sizeof tmp / sizeof *tmp; k++) mrt_free(tmp[k]);
    }
    mrt_val *plans[] = {&m, &q, &s23, &s234, &s13, &s321, &s12_10, &srep, &sperm, &s246, &s123, &none1};
    for (size_t k = 0; k < sizeof plans / sizeof *plans; k++) mrt_free(plans[k]);

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

    /* Real `.^` runs the real loop when no negative base meets a
     * fractional exponent (b .^ a, a .^ b) and the complex kernel
     * otherwise (a .^ 0.5, which goes complex): either way the result is
     * the complex kernel's over zero imaginary parts. */
    mrt_val az = make(2, 3, are, none, 0);
    const mrt_val *pow_pairs[][2] = {{&b, &a}, {&a, &b}, {&a, half}};
    const mrt_val *pow_zero[][2] = {{&bz, &a}, {&az, &b}, {&az, half}};
    for (int k = 0; k < 3; k++) {
        mrt_op(&want, "bin_power", 2, pow_zero[k][0], pow_zero[k][1]);
        mrt_op(&got, "bin_power", 2, pow_pairs[k][0], pow_pairs[k][1]);
        check("bin_power", k < 2 ? "real loop vs complex kernel" : "complex result", &want, &got);
    }
    if (!got.im) {
        failures++;
        printf("FAIL bin_power (a .^ 0.5): no imaginary part\n");
    }

    mrt_val *owned[] = {&a, &b, &c, &z, &s, &i1, &i2, &g, &want, &bz, &cz, &az, &got};
    for (size_t k = 0; k < sizeof owned / sizeof *owned; k++) mrt_free(owned[k]);
    printf("contract: %d case(s), %d failure(s)\n", cases, failures);
    return failures != 0;
}
