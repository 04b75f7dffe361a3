/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_capr_driver(void);
static void f_capacitor(const mrt_val *arg_31, const mrt_val *arg_32, const mrt_val *arg_33, const mrt_val *arg_34, mrt_val *out_0, mrt_val *out_1);
static void f_setedge(const mrt_val *arg_20, const mrt_val *arg_21, const mrt_val *arg_22, mrt_val *out_0);
static void f_seidel(const mrt_val *arg_52, const mrt_val *arg_53, const mrt_val *arg_54, const mrt_val *arg_55, const mrt_val *arg_56, mrt_val *out_0, mrt_val *out_1);
static void f_gquad(const mrt_val *arg_32, const mrt_val *arg_33, const mrt_val *arg_34, const mrt_val *arg_35, mrt_val *out_0);

/* ---- function capr_driver ---- */
static void f_capr_driver(void)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): cap.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (double): iters.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);

bb0: ;
    const mrt_imm imm_8 = mrt_numv(10.0);
    const mrt_imm imm_9 = mrt_numv(1e-6);
    const mrt_imm imm_10 = mrt_numv(0.2);
    const mrt_imm imm_11 = mrt_numv(0.4);
    f_capacitor(mrt_wrap(imm_10), mrt_wrap(imm_11), mrt_wrap(imm_8), mrt_wrap(imm_9), &v_slot0 /*cap.1*/, &v_slot1 /*iters.1*/);
    const mrt_imm imm_14 = mrt_strv("capacitance = %.6e\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_14), &v_slot0 /*cap.1*/);
    const mrt_imm imm_15 = mrt_strv("iterations  = %d\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_15), &v_slot1 /*iters.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function capacitor ---- */
static void f_capacitor(const mrt_val *arg_31, const mrt_val *arg_32, const mrt_val *arg_33, const mrt_val *arg_34, mrt_val *out_0, mrt_val *out_1)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): w.1, cap.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (unsigned char): %t39.1, iw.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (double): h.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (unsigned char): %t41.1, ih.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (double): tol.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (double): hx.1 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t44.1 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[121];            /* stack group (unsigned char): f.1 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 121);
    mrt_val v_slot9 = {0};          /* heap group (double): f.2, f.3, f.4 */
    mrt_bind(&v_slot9, NULL, 0);
    double slot10[1];            /* stack group (double): %t52.1, %t53.1, %t54.1, omega.1 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (double): iters.2, iters.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (double): err.2, err.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (unsigned char): %t69.3, %t70.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_31);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_32);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_33);
    mrt_op(&v_slot5, MRT_OP_COPY, 1, arg_34);
bb0: ;
    const mrt_imm imm_35 = mrt_numv(0.5);
    mrt_put(&v_slot6 /*hx.1*/, mrt_rdiv(0.5, slot4[0]));
    mrt_put(&v_slot1 /*%t39.1*/, mrt_rdiv(slot0[0], slot6[0]));
    mrt_put(&v_slot1 /*iw.1*/, mrt_round(slot1[0]));
    mrt_put(&v_slot3 /*%t41.1*/, mrt_rdiv(slot2[0], slot6[0]));
    mrt_put(&v_slot3 /*ih.1*/, mrt_round(slot3[0]));
    const mrt_imm imm_43 = mrt_numv(1.0);
    mrt_put(&v_slot7 /*%t44.1*/, (slot4[0] + 1.0));
    mrt_op(&v_slot8 /*f.1*/, MRT_OP_ZEROS, 2, &v_slot7 /*%t44.1*/, &v_slot7 /*%t44.1*/);
    mrt_resize(&v_slot9, MRT_NEEDED); /* +- resize */
    f_setedge(&v_slot8 /*f.1*/, &v_slot1 /*iw.1*/, &v_slot3 /*ih.1*/, &v_slot9 /*f.2*/);
    const mrt_imm imm_49 = mrt_numv(2.0);
    const mrt_imm imm_51 = mrt_numv(3.141592653589793);
    mrt_put(&v_slot10 /*%t52.1*/, mrt_rdiv(3.141592653589793, slot4[0]));
    mrt_put(&v_slot10 /*%t53.1*/, sin(slot10[0]));
    mrt_put(&v_slot10 /*%t54.1*/, (1.0 + slot10[0]));
    mrt_put(&v_slot10 /*omega.1*/, mrt_rdiv(2.0, slot10[0]));
    const mrt_imm imm_57 = mrt_numv(0.0);
    mrt_put(&v_slot11 /*iters.2*/, 0.0);
    mrt_put(&v_slot12 /*err.2*/, 1.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot0 /*cap.1*/);
    mrt_op(out_1, MRT_OP_COPY, 1, &v_slot11 /*iters.2*/);
    mrt_free(&v_slot9);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot13 /*%t69.3*/, (double)(slot12[0] > slot5[0]));
    mrt_put(&v_slot13 /*%t70.3*/, (double)(slot13[0] != 0.0));
    if (slot13[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    f_seidel(&v_slot9 /*f.3*/, &v_slot4 /*n.1*/, &v_slot1 /*iw.1*/, &v_slot3 /*ih.1*/, &v_slot10 /*omega.1*/, &v_slot9 /*f.4*/, &v_slot12 /*err.3*/);
    mrt_put(&v_slot11 /*iters.3*/, (slot11[0] + 1.0));
    goto bb2;
bb4: ;
    f_gquad(&v_slot9 /*f.3*/, &v_slot4 /*n.1*/, &v_slot6 /*hx.1*/, &v_slot6 /*hx.1*/, &v_slot0 /*cap.1*/);
    goto bb1;
}

/* ---- function setedge ---- */
static void f_setedge(const mrt_val *arg_20, const mrt_val *arg_21, const mrt_val *arg_22, mrt_val *out_0)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (unsigned char): f.1, f.2, f.3, f.4 */
    mrt_bind(&v_slot0, NULL, 0);
    double slot1[1];            /* stack group (unsigned char): iw.1, %t26.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (unsigned char): ih.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (unsigned char): %t27.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): %t41.2, %t53.3 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (unsigned char): %t54.3 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (unsigned char): i.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t59.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t60.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (double): %t63.4, %t67.5 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[1];            /* stack group (unsigned char): %t68.4 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (unsigned char): j.4 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_20);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_21);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_22);
bb0: ;
    const mrt_imm imm_23 = mrt_numv(1.0);
    mrt_put(&v_slot1 /*%t26.1*/, (slot1[0] + 1.0));
    mrt_put(&v_slot3 /*%t27.1*/, mrt_range_count(1.0, 1.0, slot1[0]));
    const mrt_imm imm_28 = mrt_numv(0.0);
    mrt_put(&v_slot4 /*%t41.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot0 /*f.2*/);
    mrt_free(&v_slot0);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot4 /*%t53.3*/, (slot4[0] + 1.0));
    mrt_put(&v_slot5 /*%t54.3*/, (double)(slot4[0] <= slot3[0]));
    if (slot5[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot6 /*i.3*/, mrt_loop_index(1.0, 1.0, slot4[0]));
    mrt_put(&v_slot7 /*%t59.3*/, (slot2[0] + 1.0));
    mrt_put(&v_slot8 /*%t60.3*/, mrt_range_count(1.0, 1.0, slot7[0]));
    mrt_put(&v_slot9 /*%t63.4*/, 0.0);
    goto bb5;
bb4: ;
    goto bb1;
bb5: ;
    mrt_put(&v_slot9 /*%t67.5*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t68.4*/, (double)(slot9[0] <= slot8[0]));
    if (slot10[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot11 /*j.4*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    mrt_grow(&v_slot0, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot0 /*f.4*/, 2, slot6[0], slot11[0], 0.0, 1.0))
        mrt_op(&v_slot0 /*f.4*/, MRT_OP_SUBSASGN, 4, &v_slot0 /*f.3*/, mrt_wrap(imm_23), &v_slot6 /*i.3*/, &v_slot11 /*j.4*/);
    goto bb5;
bb7: ;
    goto bb2;
}

/* ---- function seidel ---- */
static void f_seidel(const mrt_val *arg_52, const mrt_val *arg_53, const mrt_val *arg_54, const mrt_val *arg_55, const mrt_val *arg_56, mrt_val *out_0, mrt_val *out_1)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (double): f.1, f.2, f.3, f.4 */
    mrt_bind(&v_slot0, NULL, 0);
    double slot1[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (unsigned char): iw.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (unsigned char): ih.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): omega.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (unsigned char): %t60.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (double): err.2, err.3, err.5 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (double): %t106.2, %t149.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t150.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (unsigned char): i.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[1];            /* stack group (double): %t158.4, %t195.5 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (unsigned char): %t196.4 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (unsigned char): j.4 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (double): %t234.4, d.4 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[1];            /* stack group (unsigned char): %t199.4, %t204.4 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): %t200.4, %t201.4, %t205.4, %t206.5, %t207.6, %t211.4, %t236.4, %t237.4 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (double): old.4 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (unsigned char): %t215.4 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[1];            /* stack group (double): %t216.4, %t220.4, %t224.4, %t228.4, v.4, %t230.4, %t231.4, new.4 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t218.4, %t222.4, %t226.4 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[1];            /* stack group (double): %t219.4, %t223.4, %t227.4 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_52);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_53);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_54);
    mrt_op(&v_slot3, MRT_OP_COPY, 1, arg_55);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_56);
bb0: ;
    const mrt_imm imm_57 = mrt_numv(0.0);
    const mrt_imm imm_58 = mrt_numv(1.0);
    const mrt_imm imm_59 = mrt_numv(2.0);
    mrt_put(&v_slot5 /*%t60.1*/, mrt_range_count(2.0, 1.0, slot1[0]));
    mrt_put(&v_slot6 /*err.2*/, 0.0);
    mrt_put(&v_slot7 /*%t106.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot0 /*f.2*/);
    mrt_op(out_1, MRT_OP_COPY, 1, &v_slot6 /*err.2*/);
    mrt_free(&v_slot0);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot7 /*%t149.3*/, (slot7[0] + 1.0));
    mrt_put(&v_slot8 /*%t150.3*/, (double)(slot7[0] <= slot5[0]));
    if (slot8[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot9 /*i.3*/, mrt_loop_index(2.0, 1.0, slot7[0]));
    mrt_put(&v_slot10 /*%t158.4*/, 0.0);
    goto bb5;
bb4: ;
    goto bb1;
bb5: ;
    mrt_put(&v_slot10 /*%t195.5*/, (slot10[0] + 1.0));
    mrt_put(&v_slot11 /*%t196.4*/, (double)(slot10[0] <= slot5[0]));
    if (slot11[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot12 /*j.4*/, mrt_loop_index(2.0, 1.0, slot10[0]));
    mrt_put(&v_slot14 /*%t199.4*/, (slot2[0] + 1.0));
    mrt_put(&v_slot15 /*%t200.4*/, (double)(slot9[0] <= slot14[0]));
    mrt_put(&v_slot15 /*%t201.4*/, (double)(slot15[0] != 0.0));
    if (slot15[0] != 0.0) goto bb9; else goto bb10;
bb7: ;
    goto bb2;
bb8: ;
    mrt_elem_get(&v_slot16 /*old.4*/, &v_slot0 /*f.3*/, 2, slot9[0], slot12[0], 0.0);
    const mrt_imm imm_213 = mrt_numv(0.25);
    mrt_put(&v_slot17 /*%t215.4*/, (slot9[0] - 1.0));
    mrt_elem_get(&v_slot18 /*%t216.4*/, &v_slot0 /*f.3*/, 2, slot17[0], slot12[0], 0.0);
    mrt_put(&v_slot19 /*%t218.4*/, (slot9[0] + 1.0));
    mrt_elem_get(&v_slot20 /*%t219.4*/, &v_slot0 /*f.3*/, 2, slot19[0], slot12[0], 0.0);
    mrt_put(&v_slot18 /*%t220.4*/, (slot18[0] + slot20[0]));
    mrt_put(&v_slot19 /*%t222.4*/, (slot12[0] - 1.0));
    mrt_elem_get(&v_slot20 /*%t223.4*/, &v_slot0 /*f.3*/, 2, slot9[0], slot19[0], 0.0);
    mrt_put(&v_slot18 /*%t224.4*/, (slot18[0] + slot20[0]));
    mrt_put(&v_slot19 /*%t226.4*/, (slot12[0] + 1.0));
    mrt_elem_get(&v_slot20 /*%t227.4*/, &v_slot0 /*f.3*/, 2, slot9[0], slot19[0], 0.0);
    mrt_put(&v_slot18 /*%t228.4*/, (slot18[0] + slot20[0]));
    mrt_put(&v_slot18 /*v.4*/, (0.25 * slot18[0]));
    mrt_put(&v_slot18 /*%t230.4*/, (slot18[0] - slot16[0]));
    mrt_put(&v_slot18 /*%t231.4*/, (slot4[0] * slot18[0]));
    mrt_put(&v_slot18 /*new.4*/, (slot16[0] + slot18[0]));
    mrt_grow(&v_slot0, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot0 /*f.4*/, 2, slot9[0], slot12[0], 0.0, slot18[0]))
        mrt_op(&v_slot0 /*f.4*/, MRT_OP_SUBSASGN, 4, &v_slot0 /*f.3*/, &v_slot18 /*new.4*/, &v_slot9 /*i.3*/, &v_slot12 /*j.4*/);
    mrt_put(&v_slot13 /*%t234.4*/, (slot18[0] - slot16[0]));
    mrt_put(&v_slot13 /*d.4*/, fabs(slot13[0]));
    mrt_put(&v_slot15 /*%t236.4*/, (double)(slot13[0] > slot6[0]));
    mrt_put(&v_slot15 /*%t237.4*/, (double)(slot15[0] != 0.0));
    if (slot15[0] != 0.0) goto bb14; else goto bb15;
bb9: ;
    mrt_put(&v_slot14 /*%t204.4*/, (slot3[0] + 1.0));
    mrt_put(&v_slot15 /*%t205.4*/, (double)(slot12[0] <= slot14[0]));
    mrt_put(&v_slot15 /*%t206.5*/, (double)(slot15[0] != 0.0));
    goto bb11;
bb10: ;
    const mrt_imm imm_202 = mrt_numv(0.0);
    mrt_put(&v_slot15 /*%t207.6*/, 0.0);
    goto bb11;
bb11: ;
    mrt_put(&v_slot15 /*%t211.4*/, (double)(slot15[0] != 0.0));
    if (slot15[0] != 0.0) goto bb12; else goto bb8;
bb12: ;
    goto bb5;
bb13: ;
    goto bb5;
bb14: ;
    mrt_copy1(&v_slot6 /*err.5*/, &v_slot13 /*d.4*/);
    goto bb13;
bb15: ;
    goto bb13;
}

/* ---- function gquad ---- */
static void f_gquad(const mrt_val *arg_32, const mrt_val *arg_33, const mrt_val *arg_34, const mrt_val *arg_35, mrt_val *out_0)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (double): f.1 */
    mrt_bind(&v_slot0, NULL, 0);
    double slot1[1];            /* stack group (double): %t76.1, cap.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (double): %t78.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): hx.1, %t77.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (double): hy.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (unsigned char): %t40.1 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t41.1 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (double): q.2, q.3, q.4, q.5 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (double): %t48.2, %t53.3, %t66.2, %t71.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[1];            /* stack group (unsigned char): %t54.3, %t72.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (unsigned char): j.3, i.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (double): %t81.3, %t82.3, %t85.3, %t86.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_32);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_33);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_34);
    mrt_op(&v_slot5, MRT_OP_COPY, 1, arg_35);
bb0: ;
    const mrt_imm imm_36 = mrt_numv(0.0);
    const mrt_imm imm_37 = mrt_numv(1.0);
    mrt_put(&v_slot6 /*%t40.1*/, (slot2[0] + 1.0));
    mrt_put(&v_slot7 /*%t41.1*/, mrt_range_count(1.0, 1.0, slot6[0]));
    mrt_put(&v_slot8 /*q.2*/, 0.0);
    mrt_put(&v_slot9 /*%t48.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot1 /*cap.1*/);
    mrt_free(&v_slot0);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot9 /*%t53.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t54.3*/, (double)(slot9[0] <= slot7[0]));
    if (slot10[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot11 /*i.3*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    mrt_elem_get(&v_slot12 /*%t85.3*/, &v_slot0 /*f.1*/, 2, slot11[0], slot2[0], 0.0);
    mrt_put(&v_slot12 /*%t86.3*/, (slot12[0] * slot5[0]));
    mrt_put(&v_slot8 /*q.5*/, (slot8[0] + slot12[0]));
    goto bb2;
bb4: ;
    mrt_put(&v_slot9 /*%t66.2*/, 0.0);
    goto bb5;
bb5: ;
    mrt_put(&v_slot9 /*%t71.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t72.3*/, (double)(slot9[0] <= slot7[0]));
    if (slot10[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot11 /*j.3*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    mrt_elem_get(&v_slot12 /*%t81.3*/, &v_slot0 /*f.1*/, 2, slot2[0], slot11[0], 0.0);
    mrt_put(&v_slot12 /*%t82.3*/, (slot12[0] * slot4[0]));
    mrt_put(&v_slot8 /*q.4*/, (slot8[0] + slot12[0]));
    goto bb5;
bb7: ;
    const mrt_imm imm_75 = mrt_numv(3.5416e-11);
    mrt_put(&v_slot1 /*%t76.1*/, (3.5416e-11 * slot8[0]));
    mrt_put(&v_slot4 /*%t77.1*/, (slot4[0] * slot5[0]));
    mrt_put(&v_slot3 /*%t78.1*/, (slot4[0] * slot2[0]));
    mrt_put(&v_slot1 /*cap.1*/, mrt_rdiv(slot1[0], slot3[0]));
    goto bb1;
}

int main(void)
{
    f_capr_driver();
    return 0;
}
