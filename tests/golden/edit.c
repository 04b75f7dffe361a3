/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_edit_driver(void);
static void f_editdist(const mrt_val *arg_79, const mrt_val *arg_80, mrt_val *out_0);
static void f_mkstring(const mrt_val *arg_19, const mrt_val *arg_20, mrt_val *out_0);

/* ---- function edit_driver ---- */
static void f_edit_driver(void)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (unsigned char): s.1 */
    mrt_bind(&v_slot0, NULL, 0);
    double slot1[1];            /* stack group (double): d.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    mrt_val v_slot2 = {0};          /* heap group (unsigned char): t.1 */
    mrt_bind(&v_slot2, NULL, 0);

bb0: ;
    const mrt_imm imm_9 = mrt_numv(12.0);
    const mrt_imm imm_10 = mrt_numv(1.0);
    mrt_resize(&v_slot0, MRT_NEEDED); /* +- resize */
    f_mkstring(mrt_wrap(imm_9), mrt_wrap(imm_10), &v_slot0 /*s.1*/);
    const mrt_imm imm_13 = mrt_numv(17.0);
    const mrt_imm imm_14 = mrt_numv(2.0);
    mrt_resize(&v_slot2, MRT_NEEDED); /* +- resize */
    f_mkstring(mrt_wrap(imm_13), mrt_wrap(imm_14), &v_slot2 /*t.1*/);
    f_editdist(&v_slot0 /*s.1*/, &v_slot2 /*t.1*/, &v_slot1 /*d.1*/);
    const mrt_imm imm_17 = mrt_strv("distance = %d\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_17), &v_slot1 /*d.1*/);
    goto bb1;
bb1: ;
    mrt_free(&v_slot0);
    mrt_free(&v_slot2);
    mrt_leave();
    return;
}

/* ---- function editdist ---- */
static void f_editdist(const mrt_val *arg_79, const mrt_val *arg_80, mrt_val *out_0)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (unsigned char): s.1 */
    mrt_bind(&v_slot0, NULL, 0);
    double slot1[1];            /* stack group (double): d.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    mrt_val v_slot2 = {0};          /* heap group (unsigned char): t.1 */
    mrt_bind(&v_slot2, NULL, 0);
    double slot3[1];            /* stack group (int): m.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): %t84.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (int): n.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (double): %t86.1 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    mrt_val v_slot7 = {0};          /* heap group (double): dp.1, dp.2, dp.3, dp.4, dp.5, dp.6, dp.7, dp.8 */
    mrt_bind(&v_slot7, NULL, 0);
    double slot8[1];            /* stack group (int): %t92.1, %t112.1, %t132.1 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (double): %t100.2, %t106.3, %t120.2, %t126.3, %t174.2, %t212.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[1];            /* stack group (unsigned char): %t107.3, %t127.3, %t213.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (double): i.4, j.6, i.5 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (int): %t224.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (double): %t300.3, %t305.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[1];            /* stack group (double): %t228.4, %t259.5 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): %t260.4 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (double): j.5 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (double): %t264.4, %t281.4, del.4, %t290.4, ins.4 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[1];            /* stack group (unsigned char): %t265.4 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t269.4, %t270.4, cost.6 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[1];            /* stack group (double): best.4, best.6, best.8 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 1);
    double slot21[1];            /* stack group (double): %t267.4 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 1);
    double slot22[1];            /* stack group (unsigned char): %t293.4, %t294.4 */
    mrt_val v_slot22 = {0};
    mrt_bind(&v_slot22, slot22, 1);
    double slot23[1];            /* stack group (unsigned char): %t268.4 */
    mrt_val v_slot23 = {0};
    mrt_bind(&v_slot23, slot23, 1);
    double slot24[1];            /* stack group (double): %t277.4 */
    mrt_val v_slot24 = {0};
    mrt_bind(&v_slot24, slot24, 1);
    double slot25[1];            /* stack group (unsigned char): %t284.4, %t285.4 */
    mrt_val v_slot25 = {0};
    mrt_bind(&v_slot25, slot25, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_79);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_80);
bb0: ;
    mrt_op(&v_slot3 /*m.1*/, MRT_OP_LENGTH, 1, &v_slot0 /*s.1*/);
    mrt_op(&v_slot5 /*n.1*/, MRT_OP_LENGTH, 1, &v_slot2 /*t.1*/);
    const mrt_imm imm_83 = mrt_numv(1.0);
    mrt_put(&v_slot4 /*%t84.1*/, (slot3[0] + 1.0));
    mrt_put(&v_slot6 /*%t86.1*/, (slot5[0] + 1.0));
    mrt_resize(&v_slot7, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot7 /*dp.1*/, MRT_OP_ZEROS, 2, &v_slot4 /*%t84.1*/, &v_slot6 /*%t86.1*/);
    mrt_put(&v_slot8 /*%t92.1*/, mrt_range_count(1.0, 1.0, slot4[0]));
    const mrt_imm imm_93 = mrt_numv(0.0);
    mrt_put(&v_slot9 /*%t100.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot1 /*d.1*/);
    mrt_free(&v_slot0);
    mrt_free(&v_slot2);
    mrt_free(&v_slot7);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot9 /*%t106.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t107.3*/, (double)(slot9[0] <= slot8[0]));
    if (slot10[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot11 /*i.5*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    mrt_put(&v_slot13 /*%t305.3*/, (slot11[0] - 1.0));
    mrt_grow(&v_slot7, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot7 /*dp.8*/, 2, slot11[0], 1.0, 0.0, slot13[0]))
        mrt_op(&v_slot7 /*dp.8*/, MRT_OP_SUBSASGN, 4, &v_slot7 /*dp.2*/, &v_slot13 /*%t305.3*/, &v_slot11 /*i.5*/, mrt_wrap(imm_83));
    goto bb2;
bb4: ;
    mrt_put(&v_slot8 /*%t112.1*/, mrt_range_count(1.0, 1.0, slot6[0]));
    mrt_put(&v_slot9 /*%t120.2*/, 0.0);
    goto bb5;
bb5: ;
    mrt_put(&v_slot9 /*%t126.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t127.3*/, (double)(slot9[0] <= slot8[0]));
    if (slot10[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot11 /*j.6*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    mrt_put(&v_slot13 /*%t300.3*/, (slot11[0] - 1.0));
    mrt_grow(&v_slot7, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot7 /*dp.7*/, 2, 1.0, slot11[0], 0.0, slot13[0]))
        mrt_op(&v_slot7 /*dp.7*/, MRT_OP_SUBSASGN, 4, &v_slot7 /*dp.3*/, &v_slot13 /*%t300.3*/, mrt_wrap(imm_83), &v_slot11 /*j.6*/);
    goto bb5;
bb7: ;
    const mrt_imm imm_129 = mrt_numv(2.0);
    mrt_put(&v_slot8 /*%t132.1*/, mrt_range_count(2.0, 1.0, slot4[0]));
    mrt_put(&v_slot9 /*%t174.2*/, 0.0);
    goto bb8;
bb8: ;
    mrt_put(&v_slot9 /*%t212.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t213.3*/, (double)(slot9[0] <= slot8[0]));
    if (slot10[0] != 0.0) goto bb9; else goto bb10;
bb9: ;
    mrt_put(&v_slot11 /*i.4*/, mrt_loop_index(2.0, 1.0, slot9[0]));
    mrt_put(&v_slot12 /*%t224.3*/, mrt_range_count(2.0, 1.0, slot6[0]));
    mrt_put(&v_slot14 /*%t228.4*/, 0.0);
    goto bb11;
bb10: ;
    mrt_elem_get(&v_slot1 /*d.1*/, &v_slot7 /*dp.4*/, 2, slot4[0], slot6[0], 0.0);
    goto bb1;
bb11: ;
    mrt_put(&v_slot14 /*%t259.5*/, (slot14[0] + 1.0));
    mrt_put(&v_slot15 /*%t260.4*/, (double)(slot14[0] <= slot12[0]));
    if (slot15[0] != 0.0) goto bb12; else goto bb13;
bb12: ;
    mrt_put(&v_slot16 /*j.5*/, mrt_loop_index(2.0, 1.0, slot14[0]));
    mrt_put(&v_slot17 /*%t264.4*/, (slot11[0] - 1.0));
    mrt_elem_get(&v_slot18 /*%t265.4*/, &v_slot0 /*s.1*/, 1, slot17[0], 0.0, 0.0);
    mrt_put(&v_slot21 /*%t267.4*/, (slot16[0] - 1.0));
    mrt_elem_get(&v_slot23 /*%t268.4*/, &v_slot2 /*t.1*/, 1, slot21[0], 0.0, 0.0);
    mrt_put(&v_slot19 /*%t269.4*/, (double)(slot18[0] == slot23[0]));
    mrt_put(&v_slot19 /*%t270.4*/, (double)(slot19[0] != 0.0));
    if (slot19[0] != 0.0) goto bb15; else goto bb20;
bb13: ;
    goto bb8;
bb14: ;
    mrt_elem_get(&v_slot24 /*%t277.4*/, &v_slot7 /*dp.5*/, 2, slot17[0], slot21[0], 0.0);
    mrt_put(&v_slot20 /*best.4*/, (slot24[0] + slot19[0]));
    mrt_elem_get(&v_slot17 /*%t281.4*/, &v_slot7 /*dp.5*/, 2, slot17[0], slot16[0], 0.0);
    mrt_put(&v_slot17 /*del.4*/, (slot17[0] + 1.0));
    mrt_put(&v_slot25 /*%t284.4*/, (double)(slot17[0] < slot20[0]));
    mrt_put(&v_slot25 /*%t285.4*/, (double)(slot25[0] != 0.0));
    if (slot25[0] != 0.0) goto bb17; else goto bb21;
bb15: ;
    mrt_put(&v_slot19 /*cost.6*/, 0.0);
    goto bb14;
bb16: ;
    mrt_elem_get(&v_slot17 /*%t290.4*/, &v_slot7 /*dp.5*/, 2, slot11[0], slot21[0], 0.0);
    mrt_put(&v_slot17 /*ins.4*/, (slot17[0] + 1.0));
    mrt_put(&v_slot22 /*%t293.4*/, (double)(slot17[0] < slot20[0]));
    mrt_put(&v_slot22 /*%t294.4*/, (double)(slot22[0] != 0.0));
    if (slot22[0] != 0.0) goto bb19; else goto bb22;
bb17: ;
    mrt_copy1(&v_slot20 /*best.6*/, &v_slot17 /*del.4*/);
    goto bb16;
bb18: ;
    mrt_grow(&v_slot7, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot7 /*dp.6*/, 2, slot11[0], slot16[0], 0.0, slot20[0]))
        mrt_op(&v_slot7 /*dp.6*/, MRT_OP_SUBSASGN, 4, &v_slot7 /*dp.5*/, &v_slot20 /*best.8*/, &v_slot11 /*i.4*/, &v_slot16 /*j.5*/);
    goto bb11;
bb19: ;
    mrt_copy1(&v_slot20 /*best.8*/, &v_slot17 /*ins.4*/);
    goto bb18;
bb20: ;
    mrt_put(&v_slot19 /*cost.6*/, 1.0);
    goto bb14;
bb21: ;
    goto bb16;
bb22: ;
    goto bb18;
}

/* ---- function mkstring ---- */
static void f_mkstring(const mrt_val *arg_19, const mrt_val *arg_20, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (int): seedv.1, x.2, %t56.3, x.3 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (int): %t25.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    mrt_val v_slot3 = {0};          /* heap group (unsigned char): s.2, s.3 */
    mrt_bind(&v_slot3, NULL, 0);
    double slot4[1];            /* stack group (double): %t40.2, %t52.3 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (unsigned char): %t53.3 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (unsigned char): i.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (int): %t58.3, %t63.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t64.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_19);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_20);
bb0: ;
    const mrt_imm imm_27 = mrt_emptyv();
    const mrt_imm imm_23 = mrt_numv(1.0);
    mrt_put(&v_slot2 /*%t25.1*/, mrt_range_count(1.0, 1.0, slot0[0]));
    const mrt_imm imm_26 = mrt_numv(0.0);
    mrt_op(&v_slot3 /*s.2*/, MRT_OP_COPY, 1, mrt_wrap(imm_27));
    mrt_put(&v_slot4 /*%t40.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot3 /*s.2*/);
    mrt_free(&v_slot3);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot4 /*%t52.3*/, (slot4[0] + 1.0));
    mrt_put(&v_slot5 /*%t53.3*/, (double)(slot4[0] <= slot2[0]));
    if (slot5[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot6 /*i.3*/, mrt_loop_index(1.0, 1.0, slot4[0]));
    const mrt_imm imm_55 = mrt_numv(75.0);
    mrt_put(&v_slot1 /*%t56.3*/, (slot1[0] * 75.0));
    const mrt_imm imm_57 = mrt_numv(74.0);
    mrt_put(&v_slot7 /*%t58.3*/, (slot1[0] + 74.0));
    const mrt_imm imm_59 = mrt_numv(65537.0);
    mrt_put(&v_slot1 /*x.3*/, mrt_mod(slot7[0], 65537.0));
    const mrt_imm imm_61 = mrt_numv(97.0);
    const mrt_imm imm_62 = mrt_numv(26.0);
    mrt_put(&v_slot7 /*%t63.3*/, mrt_mod(slot1[0], 26.0));
    mrt_put(&v_slot8 /*%t64.3*/, (97.0 + slot7[0]));
    mrt_grow(&v_slot3, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot3 /*s.3*/, 1, slot6[0], 0.0, 0.0, slot8[0]))
        mrt_op(&v_slot3 /*s.3*/, MRT_OP_SUBSASGN, 3, &v_slot3 /*s.2*/, &v_slot8 /*%t64.3*/, &v_slot6 /*i.3*/);
    goto bb2;
bb4: ;
    goto bb1;
}

int main(void)
{
    f_edit_driver();
    return 0;
}
