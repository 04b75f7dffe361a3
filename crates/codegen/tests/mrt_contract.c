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

#include <math.h>
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

/* A one-row matrix literal [args...], run through differential as if
 * it were an op id. */
#define CONCAT_ROW (-1)

static void apply(mrt_val *dst, int op, int argc, const mrt_val *const *args) {
    if (op == CONCAT_ROW) mrt_concat(dst, 1, &argc, argc, args);
    else mrt_opv(dst, op, argc, args);
}

/* Runs op on args four ways (see the header) and compares. */
static void differential(const char *name, int op, int argc, const mrt_val *const *args) {
    const mrt_val *aliased[8];
    mrt_val want, fixed, self, other, view;
    double fixed_buf[CAP], self_buf[CAP];

    mrt_bind(&want, NULL, 0);
    apply(&want, op, argc, args);

    mrt_bind(&fixed, fixed_buf, CAP);
    apply(&fixed, op, argc, args);
    check(name, "distinct fixed dst", &want, &fixed);

    memcpy(aliased, args, (size_t)argc * sizeof(*args));
    mrt_bind(&self, NULL, 0);
    mrt_op(&self, MRT_OP_COPY, 1, args[0]);
    aliased[0] = &self;
    apply(&self, op, argc, aliased);
    check(name, "dst is operand 0", &want, &self);

    mrt_bind(&other, self_buf, CAP);
    mrt_op(&other, MRT_OP_COPY, 1, args[0]);
    mrt_bind(&view, self_buf, CAP);
    aliased[0] = &other;
    apply(&view, op, argc, aliased);
    check(name, "dst shares operand 0's buffer", &want, &view);

    mrt_free(&want);
    mrt_free(&self);
}

#define RUN(op, ...)                                                          \
    do {                                                                      \
        const mrt_val *args_[] = {__VA_ARGS__};                               \
        differential(#op, op, (int)(sizeof args_ / sizeof *args_), args_);    \
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
        differential(what, MRT_OP_SUBSREF, argc_, args_);               \
        mrt_bind(&got_, NULL, 0);                                       \
        mrt_opv(&got_, MRT_OP_SUBSREF, argc_, args_);                   \
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
        mrt_op(&d, MRT_OP_ZEROS, 2, two, two);
        printf("a 2x2 result fit a 2-element fixed slot\n");
        return 0;
    }
    /* Subscript errors: every subscript must be a positive integer
     * before any extent or value count is checked (a(5, 0.5) on a 2x2
     * array and a(0.5, 1:2) = [1 2 3]). */
    if (argc > 1 && !strcmp(argv[1], "order")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, MRT_OP_ZEROS, 2, two, two);
        mrt_op(&d, MRT_OP_SUBSREF, 3, &d, mrt_wrap(mrt_numv(5.0)), half);
        printf("a(5, 0.5) returned\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "asgnorder")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, MRT_OP_ZEROS, 2, two, two);
        mrt_op(&d, MRT_OP_SUBSASGN, 4, &d, &i1, half, &i2);
        printf("a(0.5, [2 1]) = 4 values returned\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "extent")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, MRT_OP_ZEROS, 2, two, two);
        mrt_op(&d, MRT_OP_SUBSREF, 3, &d, mrt_wrap(mrt_numv(5.0)), mrt_wrap(mrt_numv(1.0)));
        printf("a(5, 1) returned\n");
        return 0;
    }
    if (argc > 1 && !strcmp(argv[1], "unknown")) {
        mrt_val d;
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, MRT_OP_COUNT, 1, &a);
        printf("an unknown op returned\n");
        return 0;
    }

    RUN(MRT_OP_ADD, &a, &b);
    RUN(MRT_OP_ADD, &a, two);
    RUN(MRT_OP_ADD, &z, &a);
    RUN(MRT_OP_SUB, &a, &b);
    RUN(MRT_OP_TIMES, &a, &b);
    RUN(MRT_OP_TIMES, &z, &z);
    RUN(MRT_OP_RDIVIDE, &a, &b);
    RUN(MRT_OP_RDIVIDE, &z, &a);
    RUN(MRT_OP_POWER, &a, half);
    RUN(MRT_OP_POWER, &a, two);
    RUN(MRT_OP_LT, &a, &b);
    RUN(MRT_OP_EQ, &z, &z);
    RUN(MRT_OP_MTIMES, &a, &c);
    RUN(MRT_OP_MTIMES, &z, &c);
    RUN(MRT_OP_MTIMES, two, &a);
    RUN(MRT_OP_TRANSPOSE, &a);
    RUN(MRT_OP_CTRANSPOSE, &z);
    RUN(MRT_OP_SUBSREF, &a, &i1);
    RUN(MRT_OP_SUBSREF, &a, &i2, MRT_COLON);
    RUN(MRT_OP_SUBSREF, &z, MRT_COLON, &i2);
    RUN(MRT_OP_SUBSREF, &s, &i2);
    RUN(MRT_OP_COPY, &s);
    RUN(MRT_OP_COPY, &z);
    RUN(MRT_OP_SUM, &a);
    RUN(MRT_OP_SUM, &z);
    RUN(MRT_OP_MAX, &a);
    RUN(MRT_OP_MAX, &a, &b);
    RUN(MRT_OP_MOD, &a, &b);
    RUN(MRT_OP_SQRT, &a);
    RUN(CONCAT_ROW, &a, &b);

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
        RUN(MRT_OP_SUBSREF, &z, one, two);
        mrt_bind(&w, NULL, 0);
        mrt_op(&w, MRT_OP_SUBSREF, 3, &z, one, two);
        check("scalar subsref", "complex element", &elem, &w);
        mrt_op(&w, MRT_OP_SUBSASGN, 4, &z, two, one, two);
        check("scalar subsasgn", "real into complex", &wz, &w);
        mrt_op(&w, MRT_OP_SUBSASGN, 4, &a, mrt_wrap(mrt_imagv(1.0)), two, one);
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
        mrt_op(&g, MRT_OP_SUBSASGN, 4, &g, &r, &s123, mrt_wrap(mrt_numv(3.0)));
        expect("growth through a range", &g, 3, 3, 1, grown);
        mrt_op(&v, MRT_OP_SUBSASGN, 3, &v, mrt_wrap(mrt_numv(9.0)), &s45);
        expect("linear growth through a range", &v, 1, 5, 1, appended);
        mrt_bind(&t, NULL, 0);
        mrt_op(&t, MRT_OP_SUBSREF, 3, &m, &s12, MRT_COLON);
        mrt_op(&m, MRT_OP_SUBSASGN, 4, &m, &t, &s23, MRT_COLON);
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
    mrt_op(&want, MRT_OP_ADD, 2, &a, &b);
    const mrt_val *held[] = {&z, &s};
    for (int k = 0; k < 2; k++) {
        mrt_bind(&d, NULL, 0);
        mrt_op(&d, MRT_OP_COPY, 1, held[k]);
        mrt_op(&d, MRT_OP_ADD, 2, &a, &b);
        check("reset", k ? "heap dst held a char" : "heap dst held a complex", &want, &d);
        mrt_free(&d);
        mrt_bind(&d, buf, CAP);
        mrt_op(&d, MRT_OP_COPY, 1, held[k]);
        mrt_op(&d, MRT_OP_ADD, 2, &a, &b);
        check("reset", k ? "fixed dst held a char" : "fixed dst held a complex", &want, &d);
    }

    /* Row lengths shape the literal: [1 2; 3 4]. */
    static const double grid[] = {1, 3, 2, 4};
    static const int rows22[] = {2, 2};
    mrt_val g = make(2, 2, grid, NULL, 0);
    const mrt_val *cells[] = {mrt_wrap(mrt_numv(1)), mrt_wrap(mrt_numv(2)),
                              mrt_wrap(mrt_numv(3)), mrt_wrap(mrt_numv(4))};
    mrt_concat(&d, 2, rows22, 4, cells);
    check("mrt_concat", "grid literal", &g, &d);

    /* The real fast paths compute the complex kernels' real parts bit
     * for bit when the imaginary parts are all zero. Division is the
     * exception: real `./` is IEEE division, as in the Rust runtime, so
     * x./0 is +-Inf where the complex formula gives NaN. */
    static const double none[6] = {0};
    static const int kernels[] = {
        MRT_OP_ADD, MRT_OP_SUB, MRT_OP_TIMES, MRT_OP_EQ, MRT_OP_NE,
        MRT_OP_LT, MRT_OP_LE, MRT_OP_GT, MRT_OP_GE, MRT_OP_AND, MRT_OP_OR,
    };
    static const char *const kernel_names[] = {
        "add", "sub", "times", "eq", "ne", "lt", "le", "gt", "ge", "and", "or",
    };
    mrt_val bz = make(2, 3, bre, none, 0), cz = make(3, 2, cre, none, 0), got;
    mrt_bind(&got, NULL, 0);
    for (size_t k = 0; k < sizeof kernels / sizeof *kernels; k++) {
        mrt_op(&want, kernels[k], 2, &a, &b);
        mrt_op(&got, kernels[k], 2, &a, &bz);
        check_parts(kernel_names[k], "real vs complex kernel", &want, &got, 1);
        mrt_op(&want, kernels[k], 2, &b, &a);
        mrt_op(&got, kernels[k], 2, &bz, &a);
        check_parts(kernel_names[k], "real vs complex kernel, swapped", &want, &got, 1);
    }
    {
        double q[6], r[6];
        for (int k = 0; k < 6; k++) {
            q[k] = are[k] / bre[k];
            r[k] = bre[k] / are[k];
        }
        mrt_val wq = make(2, 3, q, NULL, 0), wr = make(2, 3, r, NULL, 0);
        mrt_op(&got, MRT_OP_RDIVIDE, 2, &a, &b);
        check("rdivide", "IEEE division", &wq, &got);
        mrt_op(&got, MRT_OP_RDIVIDE, 2, &b, &a);
        check("rdivide", "IEEE division, swapped", &wr, &got);
        mrt_free(&wq);
        mrt_free(&wr);
        /* Unary minus flips the sign of a zero, as in the Rust runtime. */
        for (int k = 0; k < 6; k++) q[k] = -are[k];
        mrt_val wn = make(2, 3, q, NULL, 0);
        mrt_op(&got, MRT_OP_UMINUS, 1, &a);
        check("uminus", "negates every element", &wn, &got);
        mrt_free(&wn);
    }
    mrt_op(&want, MRT_OP_MTIMES, 2, &a, &c);
    mrt_op(&got, MRT_OP_MTIMES, 2, &a, &cz);
    check_parts("mtimes", "real vs complex kernel", &want, &got, 1);
    {
        /* Inner dimension 11 with zeros: the real product's four-column
         * passes and its leftover columns, against the complex kernel. */
        double lre[7 * 11], rre[11 * 5], zero[11 * 5] = {0};
        for (int k = 0; k < 7 * 11; k++) lre[k] = (k % 13) * 0.37 - 1.9;
        for (int k = 0; k < 11 * 5; k++) rre[k] = k % 4 == 1 ? 0.0 : (k % 7) * 1.13 - 2.2;
        mrt_val l = make(7, 11, lre, NULL, 0), r = make(11, 5, rre, NULL, 0);
        mrt_val rz = make(11, 5, rre, zero, 0);
        mrt_op(&want, MRT_OP_MTIMES, 2, &l, &r);
        mrt_op(&got, MRT_OP_MTIMES, 2, &l, &rz);
        check_parts("mtimes", "real vs complex kernel, 7x11 * 11x5", &want, &got, 1);
        mrt_free(&l);
        mrt_free(&r);
        mrt_free(&rz);
    }

    /* Real `.^` runs the real loop when no negative base meets a
     * fractional exponent (b .^ a, a .^ b) and the complex kernel
     * otherwise (a .^ 0.5, which goes complex): either way the result is
     * the complex kernel's over zero imaginary parts. */
    mrt_val az = make(2, 3, are, none, 0);
    const mrt_val *pow_pairs[][2] = {{&b, &a}, {&a, &b}, {&a, half}};
    const mrt_val *pow_zero[][2] = {{&bz, &a}, {&az, &b}, {&az, half}};
    for (int k = 0; k < 3; k++) {
        mrt_op(&want, MRT_OP_POWER, 2, pow_zero[k][0], pow_zero[k][1]);
        mrt_op(&got, MRT_OP_POWER, 2, pow_pairs[k][0], pow_pairs[k][1]);
        check("power", k < 2 ? "real loop vs complex kernel" : "complex result", &want, &got);
    }
    if (!got.im) {
        failures++;
        printf("FAIL bin_power (a .^ 0.5): no imaginary part\n");
    }

    /* Aliased results: r = r*r and the gather x = x(idx) go through the
     * runtime's reused scratch, and the elementwise r = r + r, x = 2*x,
     * x = y - x and x = x ./ s run in place in dst's buffer, while the
     * scalar-broadcast hazard s = s + A (dst is the scalar operand) takes
     * the scratch. Each (in dst == an operand's handle, or in a frame
     * buffer) is repeated while the values grow and shrink, and must
     * equal the same op into a distinct dst every time. */
    {
        static const double seed[] = {0.5, -1, 2, 0.25, 1.5, -0.75, 3, 1, -2};
        static const double pick[] = {3, 1, 2, 2};
        mrt_val r, x, ref, idx = make(1, 4, pick, NULL, 0);
        double frame[CAP];
        mrt_val f;
        mrt_bind(&f, frame, CAP);
        mrt_bind(&r, NULL, 0);
        mrt_bind(&x, NULL, 0);
        mrt_bind(&ref, NULL, 0);
        for (int k = 0; k < 200; k++) {
            int n = 1 + k % 3;
            mrt_val sq = make(n, n, seed, NULL, 0), row = make(1, 3 + k % 4, seed, NULL, 0);
            mrt_op(&r, MRT_OP_COPY, 1, &sq);
            mrt_op(&ref, MRT_OP_MTIMES, 2, &r, &r);
            mrt_op(&r, MRT_OP_MTIMES, 2, &r, &r);
            check("aliased r = r*r", "equals a distinct dst", &ref, &r);
            mrt_op(&x, MRT_OP_COPY, 1, &row);
            mrt_op(&ref, MRT_OP_SUBSREF, 2, &x, &idx);
            mrt_op(&x, MRT_OP_SUBSREF, 2, &x, &idx);
            check("aliased x = x(idx)", "equals a distinct dst", &ref, &x);

            mrt_val *dsts[] = {&r, &f};
            for (int h = 0; h < 2; h++) {
                mrt_val *d = dsts[h];
                /* Fresh immediates: the wrap pool rotates. */
                const mrt_val *y = &row, *k2 = mrt_wrap(mrt_numv(2.0)),
                              *s1 = mrt_wrap(mrt_numv(0.5));
                mrt_op(d, MRT_OP_COPY, 1, &sq);
                mrt_op(&ref, MRT_OP_ADD, 2, d, d);
                mrt_op(d, MRT_OP_ADD, 2, d, d);
                check("aliased r = r + r", "equals a distinct dst", &ref, d);
                mrt_op(d, MRT_OP_COPY, 1, &row);
                mrt_op(&ref, MRT_OP_MTIMES, 2, k2, d);
                mrt_op(d, MRT_OP_MTIMES, 2, k2, d);
                check("aliased x = 2 * x", "equals a distinct dst", &ref, d);
                mrt_op(&ref, MRT_OP_SUB, 2, y, d);
                mrt_op(d, MRT_OP_SUB, 2, y, d);
                check("aliased x = y - x", "equals a distinct dst", &ref, d);
                mrt_op(&ref, MRT_OP_RDIVIDE, 2, d, s1);
                mrt_op(d, MRT_OP_RDIVIDE, 2, d, s1);
                check("aliased x = x ./ s", "equals a distinct dst", &ref, d);
                mrt_op(d, MRT_OP_COPY, 1, mrt_wrap(mrt_numv(0.5 + k)));
                mrt_op(&ref, MRT_OP_ADD, 2, d, &sq);
                mrt_op(d, MRT_OP_ADD, 2, d, &sq);
                check("aliased s = s + A", "equals a distinct dst", &ref, d);
            }
            mrt_free(&sq);
            mrt_free(&row);
        }
        mrt_val *tmp[] = {&r, &x, &ref, &idx};
        for (size_t k = 0; k < sizeof tmp / sizeof *tmp; k++) mrt_free(tmp[k]);
    }

    /* Typed scalar code: mrt.h's scalar kernels give the bits the
     * runtime's ops give on 1x1 operands, and mrt_elem_get/_set agree
     * with subsref/subsasgn where they apply (and decline elsewhere). */
    {
        static const double xs[] = {7, -7, 0, -0.0, 2.5, -3.5, 1e300, 0.0 / 0.0};
        static const int ops[] = {MRT_OP_RDIVIDE, MRT_OP_MOD, MRT_OP_REM, MRT_OP_MAX,
                                  MRT_OP_MIN, MRT_OP_ATAN2};
        mrt_val r, one_elem;
        double cell[1];
        mrt_bind(&r, NULL, 0);
        mrt_bind(&one_elem, cell, 1);
        for (size_t u = 0; u < sizeof xs / sizeof *xs; u++)
            for (size_t v = 0; v < sizeof xs / sizeof *xs; v++) {
                double x = xs[u], y = xs[v];
                double typed[] = {x / y, mrt_mod(x, y), mrt_rem(x, y),
                                  mrt_max2(x, y), mrt_min2(x, y), atan2(x, y)};
                for (size_t o = 0; o < sizeof ops / sizeof *ops; o++) {
                    mrt_op(&r, ops[o], 2, mrt_wrap(mrt_numv(x)), mrt_wrap(mrt_numv(y)));
                    mrt_put(&one_elem, typed[o]);
                    check("scalar kernel", "equals the runtime op", &r, &one_elem);
                }
            }
        static const double m23[] = {1, 2, 3, 4, 5, 6};
        static const double subs[][2] = {{1, 1}, {2, 3}, {6, 0}, {7, 0}, {0, 1},
                                         {1.5, 1}, {2, 4}, {3, 1}};
        mrt_val m = make(2, 3, m23, NULL, 0);
        for (size_t t = 0; t < sizeof subs / sizeof *subs; t++)
            for (int n = 1; n <= 2; n++) {
                double i = subs[t][0], j = subs[t][1];
                int in = n == 1 ? (i >= 1 && i <= 6 && i == floor(i))
                                : (i >= 1 && i <= 2 && i == floor(i) && j >= 1 && j <= 3);
                ptrdiff_t at = mrt_offset(&m, n, i, j, 0.0);
                cases++;
                if ((at >= 0) != in) {
                    failures++;
                    printf("FAIL mrt_offset(%g, %g) with %d subscript(s): %ld\n", i, j, n,
                           (long)at);
                }
                if (!in) continue;
                mrt_op(&r, MRT_OP_SUBSREF, n + 1, &m, mrt_wrap(mrt_numv(i)), mrt_wrap(mrt_numv(j)));
                mrt_elem_get(&one_elem, &m, n, i, j, 0.0);
                check("mrt_elem_get", "equals subsref", &r, &one_elem);
                mrt_op(&r, MRT_OP_SUBSASGN, n + 2, &m, mrt_wrap(mrt_numv(-1)),
                       mrt_wrap(mrt_numv(i)), mrt_wrap(mrt_numv(j)));
                mrt_val e = make(2, 3, m23, NULL, 0);
                if (!mrt_elem_set(&e, n, i, j, 0.0, -1)) {
                    failures++;
                    printf("FAIL mrt_elem_set(%g, %g) declined an element\n", i, j);
                }
                check("mrt_elem_set", "equals subsasgn", &r, &e);
                mrt_free(&e);
            }
        mrt_free(&r);
        mrt_free(&m);
    }

    mrt_val *owned[] = {&a, &b, &c, &z, &s, &i1, &i2, &g, &want, &bz, &cz, &az, &got};
    for (size_t k = 0; k < sizeof owned / sizeof *owned; k++) mrt_free(owned[k]);
    printf("contract: %d case(s), %d failure(s)\n", cases, failures);
    return failures != 0;
}
