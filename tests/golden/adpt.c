/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_adpt_driver(void);
static void f_adpt(const mrt_val *arg_38, const mrt_val *arg_39, const mrt_val *arg_40, mrt_val *out_0, mrt_val *out_1);
static void f_simp(const mrt_val *arg_16, const mrt_val *arg_17, mrt_val *out_0);
static void f_humps(const mrt_val *arg_20, mrt_val *out_0);

/* ---- function adpt_driver ---- */
static void f_adpt_driver(void)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): q.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (double): cnt.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);

bb0: ;
    const mrt_imm imm_7 = mrt_numv(0.0001);
    const mrt_imm imm_8 = mrt_numv(0.0);
    const mrt_imm imm_9 = mrt_numv(1.0);
    f_adpt(mrt_wrap(imm_8), mrt_wrap(imm_9), mrt_wrap(imm_7), &v_slot0 /*q.1*/, &v_slot1 /*cnt.1*/);
    const mrt_imm imm_12 = mrt_strv("integral = %.8f\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_12), &v_slot0 /*q.1*/);
    const mrt_imm imm_13 = mrt_strv("panels   = %d\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_13), &v_slot1 /*cnt.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function adpt ---- */
static void f_adpt(const mrt_val *arg_38, const mrt_val *arg_39, const mrt_val *arg_40, mrt_val *out_0, mrt_val *out_1)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): a.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    mrt_val v_slot1 = {0};          /* heap group (double): hi.2, hi.3, hi.4, hi.5, hi.6 */
    mrt_bind(&v_slot1, NULL, 0);
    double slot2[1];            /* stack group (unsigned char): b.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (double): total.2, %t143.3, total.3, total.4 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): tol.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    mrt_val v_slot5 = {0};          /* heap group (double): lo.2, lo.3, lo.4, lo.5, lo.6 */
    mrt_bind(&v_slot5, NULL, 0);
    double slot6[1];            /* stack group (double): cnt.2, cnt.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (double): top.2, top.3, top.4, top.5, top.6 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t112.3, %t113.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (double): x1.3, %t146.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[1];            /* stack group (double): x2.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (double): %t118.3, m.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (double): s1.3, %t127.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (double): %t122.3, s2.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[1];            /* stack group (double): %t123.3, %t128.3 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): %t133.3, %t134.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (double): %t130.3, %t132.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (double): %t131.3 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_38);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_39);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_40);
bb0: ;
    const mrt_imm imm_42 = mrt_emptyv();
    const mrt_imm imm_41 = mrt_numv(1.0);
    mrt_resize(&v_slot5, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot5 /*lo.2*/, MRT_OP_SUBSASGN, 3, mrt_wrap(imm_42), &v_slot0 /*a.1*/, mrt_wrap(imm_41));
    mrt_resize(&v_slot1, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot1 /*hi.2*/, MRT_OP_SUBSASGN, 3, mrt_wrap(imm_42), &v_slot2 /*b.1*/, mrt_wrap(imm_41));
    const mrt_imm imm_48 = mrt_numv(0.0);
    mrt_put(&v_slot3 /*total.2*/, 0.0);
    mrt_put(&v_slot7 /*top.2*/, 1.0);
    mrt_put(&v_slot6 /*cnt.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot3 /*total.2*/);
    mrt_op(out_1, MRT_OP_COPY, 1, &v_slot6 /*cnt.2*/);
    mrt_free(&v_slot1);
    mrt_free(&v_slot5);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot8 /*%t112.3*/, (double)(slot7[0] > 0.0));
    mrt_put(&v_slot8 /*%t113.3*/, (double)(slot8[0] != 0.0));
    if (slot8[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_elem_get(&v_slot9 /*x1.3*/, &v_slot5 /*lo.3*/, 1, slot7[0], 0.0, 0.0);
    mrt_elem_get(&v_slot10 /*x2.3*/, &v_slot1 /*hi.3*/, 1, slot7[0], 0.0, 0.0);
    mrt_put(&v_slot7 /*top.3*/, (slot7[0] - 1.0));
    mrt_put(&v_slot11 /*%t118.3*/, (slot9[0] + slot10[0]));
    const mrt_imm imm_119 = mrt_numv(2.0);
    mrt_put(&v_slot11 /*m.3*/, mrt_rdiv(slot11[0], 2.0));
    f_simp(&v_slot9 /*x1.3*/, &v_slot10 /*x2.3*/, &v_slot12 /*s1.3*/);
    f_simp(&v_slot9 /*x1.3*/, &v_slot11 /*m.3*/, &v_slot13 /*%t122.3*/);
    f_simp(&v_slot11 /*m.3*/, &v_slot10 /*x2.3*/, &v_slot14 /*%t123.3*/);
    mrt_put(&v_slot13 /*s2.3*/, (slot13[0] + slot14[0]));
    mrt_put(&v_slot6 /*cnt.3*/, (slot6[0] + 1.0));
    mrt_put(&v_slot12 /*%t127.3*/, (slot13[0] - slot12[0]));
    mrt_put(&v_slot14 /*%t128.3*/, fabs(slot12[0]));
    const mrt_imm imm_129 = mrt_numv(15.0);
    mrt_put(&v_slot16 /*%t130.3*/, (15.0 * slot4[0]));
    mrt_put(&v_slot17 /*%t131.3*/, (slot10[0] - slot9[0]));
    mrt_put(&v_slot16 /*%t132.3*/, (slot16[0] * slot17[0]));
    mrt_put(&v_slot15 /*%t133.3*/, (double)(slot14[0] <= slot16[0]));
    mrt_put(&v_slot15 /*%t134.3*/, (double)(slot15[0] != 0.0));
    if (slot15[0] != 0.0) goto bb6; else goto bb7;
bb4: ;
    goto bb1;
bb5: ;
    goto bb2;
bb6: ;
    mrt_put(&v_slot3 /*%t143.3*/, (slot3[0] + slot13[0]));
    mrt_put(&v_slot9 /*%t146.3*/, mrt_rdiv(slot12[0], 15.0));
    mrt_put(&v_slot3 /*total.3*/, (slot3[0] + slot9[0]));
    goto bb5;
bb7: ;
    mrt_put(&v_slot7 /*top.4*/, (slot7[0] + 1.0));
    mrt_grow(&v_slot5, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot5 /*lo.4*/, 1, slot7[0], 0.0, 0.0, slot9[0]))
        mrt_op(&v_slot5 /*lo.4*/, MRT_OP_SUBSASGN, 3, &v_slot5 /*lo.3*/, &v_slot9 /*x1.3*/, &v_slot7 /*top.4*/);
    mrt_grow(&v_slot1, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot1 /*hi.4*/, 1, slot7[0], 0.0, 0.0, slot11[0]))
        mrt_op(&v_slot1 /*hi.4*/, MRT_OP_SUBSASGN, 3, &v_slot1 /*hi.3*/, &v_slot11 /*m.3*/, &v_slot7 /*top.4*/);
    mrt_put(&v_slot7 /*top.5*/, (slot7[0] + 1.0));
    mrt_grow(&v_slot5, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot5 /*lo.5*/, 1, slot7[0], 0.0, 0.0, slot11[0]))
        mrt_op(&v_slot5 /*lo.5*/, MRT_OP_SUBSASGN, 3, &v_slot5 /*lo.4*/, &v_slot11 /*m.3*/, &v_slot7 /*top.5*/);
    mrt_grow(&v_slot1, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot1 /*hi.5*/, 1, slot7[0], 0.0, 0.0, slot10[0]))
        mrt_op(&v_slot1 /*hi.5*/, MRT_OP_SUBSASGN, 3, &v_slot1 /*hi.4*/, &v_slot10 /*x2.3*/, &v_slot7 /*top.5*/);
    goto bb5;
}

/* ---- function simp ---- */
static void f_simp(const mrt_val *arg_16, const mrt_val *arg_17, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): x1.1, %t24.1, %t28.1, %t30.1, s.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (double): x2.1, %t29.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (double): %t18.1, m.1, %t26.1, %t27.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (double): %t21.1, %t23.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_16);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_17);
bb0: ;
    mrt_put(&v_slot2 /*%t18.1*/, (slot0[0] + slot1[0]));
    const mrt_imm imm_19 = mrt_numv(2.0);
    mrt_put(&v_slot2 /*m.1*/, mrt_rdiv(slot2[0], 2.0));
    mrt_put(&v_slot3 /*%t21.1*/, (slot1[0] - slot0[0]));
    const mrt_imm imm_22 = mrt_numv(6.0);
    mrt_put(&v_slot3 /*%t23.1*/, mrt_rdiv(slot3[0], 6.0));
    f_humps(&v_slot0 /*x1.1*/, &v_slot0 /*%t24.1*/);
    const mrt_imm imm_25 = mrt_numv(4.0);
    f_humps(&v_slot2 /*m.1*/, &v_slot2 /*%t26.1*/);
    mrt_put(&v_slot2 /*%t27.1*/, (4.0 * slot2[0]));
    mrt_put(&v_slot0 /*%t28.1*/, (slot0[0] + slot2[0]));
    f_humps(&v_slot1 /*x2.1*/, &v_slot1 /*%t29.1*/);
    mrt_put(&v_slot0 /*%t30.1*/, (slot0[0] + slot1[0]));
    mrt_put(&v_slot0 /*s.1*/, (slot3[0] * slot0[0]));
    goto bb1;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot0 /*s.1*/);
    mrt_leave();
    return;
}

/* ---- function humps ---- */
static void f_humps(const mrt_val *arg_20, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): x.1, %t31.1, %t33.1, %t35.1, %t36.1, %t37.1, y.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (double): %t23.1, %t25.1, %t27.1, %t28.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_20);
bb0: ;
    const mrt_imm imm_21 = mrt_numv(1.0);
    const mrt_imm imm_22 = mrt_numv(0.3);
    mrt_put(&v_slot1 /*%t23.1*/, (slot0[0] - 0.3));
    const mrt_imm imm_24 = mrt_numv(2.0);
    mrt_put(&v_slot1 /*%t25.1*/, pow(slot1[0], 2.0));
    const mrt_imm imm_26 = mrt_numv(0.01);
    mrt_put(&v_slot1 /*%t27.1*/, (slot1[0] + 0.01));
    mrt_put(&v_slot1 /*%t28.1*/, mrt_rdiv(1.0, slot1[0]));
    const mrt_imm imm_30 = mrt_numv(0.9);
    mrt_put(&v_slot0 /*%t31.1*/, (slot0[0] - 0.9));
    mrt_put(&v_slot0 /*%t33.1*/, pow(slot0[0], 2.0));
    const mrt_imm imm_34 = mrt_numv(0.04);
    mrt_put(&v_slot0 /*%t35.1*/, (slot0[0] + 0.04));
    mrt_put(&v_slot0 /*%t36.1*/, mrt_rdiv(1.0, slot0[0]));
    mrt_put(&v_slot0 /*%t37.1*/, (slot1[0] + slot0[0]));
    const mrt_imm imm_38 = mrt_numv(6.0);
    mrt_put(&v_slot0 /*y.1*/, (slot0[0] - 6.0));
    goto bb1;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot0 /*y.1*/);
    mrt_leave();
    return;
}

int main(void)
{
    f_adpt_driver();
    return 0;
}
