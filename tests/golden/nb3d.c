/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_nb3d_driver(void);
static void f_nbody3d(const mrt_val *arg_83, const mrt_val *arg_84, mrt_val *out_0, mrt_val *out_1);

/* ---- function nb3d_driver ---- */
static void f_nb3d_driver(void)
{
    mrt_enter();
    double slot0[24];            /* stack group (mrt_complex): p.1, %t17.1, %t19.1, %t21.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 24);
    double slot1[1];            /* stack group (int): %t23.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    mrt_val v_slot2 = {0};          /* heap group (mrt_complex): hist.1 */
    mrt_bind(&v_slot2, NULL, 0);
    double slot3[24];            /* stack group (mrt_complex): %t18.1, %t20.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 24);

bb0: ;
    const mrt_imm imm_12 = mrt_numv(8.0);
    const mrt_imm imm_13 = mrt_numv(6.0);
    f_nbody3d(mrt_wrap(imm_12), mrt_wrap(imm_13), &v_slot0 /*p.1*/, &v_slot2 /*hist.1*/);
    const mrt_imm imm_16 = mrt_strv("radius  = %.8f\\n");
    mrt_op(&v_slot0 /*%t17.1*/, MRT_OP_TIMES, 2, &v_slot0 /*p.1*/, &v_slot0 /*p.1*/);
    mrt_op(&v_slot3 /*%t18.1*/, MRT_OP_CTRANSPOSE, 1, &v_slot0 /*%t17.1*/);
    mrt_op(&v_slot0 /*%t19.1*/, MRT_OP_SUM, 1, &v_slot3 /*%t18.1*/);
    mrt_op(&v_slot3 /*%t20.1*/, MRT_OP_MAX, 1, &v_slot0 /*%t19.1*/);
    mrt_op(&v_slot0 /*%t21.1*/, MRT_OP_SQRT, 1, &v_slot3 /*%t20.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_16), &v_slot0 /*%t21.1*/);
    const mrt_imm imm_22 = mrt_strv("tracked = %d\\n");
    mrt_op(&v_slot1 /*%t23.1*/, MRT_OP_NUMEL, 1, &v_slot2 /*hist.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_22), &v_slot1 /*%t23.1*/);
    goto bb1;
bb1: ;
    mrt_free(&v_slot2);
    mrt_leave();
    return;
}

/* ---- function nbody3d ---- */
static void f_nbody3d(const mrt_val *arg_83, const mrt_val *arg_84, mrt_val *out_0, mrt_val *out_1)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (unsigned char): steps.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[24];            /* stack group (unsigned char): p.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 24);
    double slot3[1];            /* stack group (unsigned char): %t91.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[192];            /* stack group (mrt_complex): d.1, d.2, d.3, d.4 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 192);
    double slot5[24];            /* stack group (mrt_complex): p.2, p.3, p.4, p.7 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 24);
    double slot6[24];            /* stack group (double): p.5, p.6 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 24);
    double slot7[1];            /* stack group (double): %t103.2, %t113.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t122.1 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[1];            /* stack group (unsigned char): %t114.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    mrt_val v_slot10 = {0};          /* heap group (mrt_complex): hist.2, hist.3 */
    mrt_bind(&v_slot10, NULL, 0);
    double slot11[1];            /* stack group (unsigned char): i.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[24];            /* stack group (mrt_complex): v.2, v.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 24);
    double slot13[1];            /* stack group (double): %t326.3, %t329.3, %t333.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[1];            /* stack group (double): %t183.2, %t239.3 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): %t240.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (unsigned char): t.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (double): %t248.4, %t260.5 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[64];            /* stack group (mrt_complex): %t263.3, %t265.3, %t270.3, %t275.3, r2.3, %t279.3, w.3, %t299.3, %t301.3, %t305.3 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 64);
    double slot19[1];            /* stack group (unsigned char): %t261.4 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[64];            /* stack group (mrt_complex): %t267.3, %t269.3, %t272.3, %t274.3, %t278.3, a.4, a.5 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 64);
    double slot21[1];            /* stack group (unsigned char): k.6 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 1);
    double slot22[1];            /* stack group (double): %t290.4, %t297.5 */
    mrt_val v_slot22 = {0};
    mrt_bind(&v_slot22, slot22, 1);
    double slot23[64];            /* stack group (mrt_complex): col.4, %t321.4, %t323.4 */
    mrt_val v_slot23 = {0};
    mrt_bind(&v_slot23, slot23, 64);
    double slot24[1];            /* stack group (unsigned char): k.5 */
    mrt_val v_slot24 = {0};
    mrt_bind(&v_slot24, slot24, 1);
    double slot25[8];            /* stack group (unsigned char): %t298.4, %t317.4, %t320.4 */
    mrt_val v_slot25 = {0};
    mrt_bind(&v_slot25, slot25, 8);
    double slot26[64];            /* stack group (mrt_complex): %t308.4, %t309.4, %t311.4, %t312.4, %t318.4 */
    mrt_val v_slot26 = {0};
    mrt_bind(&v_slot26, slot26, 64);
    double slot27[64];            /* stack group (mrt_complex): %t310.4, %t322.4 */
    mrt_val v_slot27 = {0};
    mrt_bind(&v_slot27, slot27, 64);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_83);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_84);
bb0: ;
    const mrt_imm imm_93 = mrt_emptyv();
    const mrt_imm imm_85 = mrt_numv(3.0);
    mrt_op(&v_slot2 /*p.1*/, MRT_OP_ZEROS, 2, &v_slot0 /*n.1*/, mrt_wrap(imm_85));
    const mrt_imm imm_89 = mrt_numv(1.0);
    mrt_put(&v_slot3 /*%t91.1*/, mrt_range_count(1.0, 1.0, slot0[0]));
    const mrt_imm imm_92 = mrt_numv(0.0);
    mrt_op(&v_slot5 /*p.2*/, MRT_OP_COPY, 1, &v_slot2 /*p.1*/);
    mrt_put(&v_slot7 /*%t103.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot5 /*p.3*/);
    mrt_op(out_1, MRT_OP_COPY, 1, &v_slot10 /*hist.2*/);
    mrt_free(&v_slot10);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot7 /*%t113.3*/, (slot7[0] + 1.0));
    mrt_put(&v_slot9 /*%t114.3*/, (double)(slot7[0] <= slot3[0]));
    if (slot9[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot11 /*i.3*/, mrt_loop_index(1.0, 1.0, slot7[0]));
    mrt_put(&v_slot13 /*%t326.3*/, cos(slot11[0]));
    mrt_op(&v_slot6 /*p.5*/, MRT_OP_SUBSASGN, 4, &v_slot5 /*p.2*/, &v_slot13 /*%t326.3*/, &v_slot11 /*i.3*/, mrt_wrap(imm_89));
    mrt_put(&v_slot13 /*%t329.3*/, sin(slot11[0]));
    const mrt_imm imm_330 = mrt_numv(2.0);
    if (!mrt_elem_set(&v_slot6 /*p.6*/, 2, slot11[0], 2.0, 0.0, slot13[0]))
        mrt_op(&v_slot6 /*p.6*/, MRT_OP_SUBSASGN, 4, &v_slot6 /*p.5*/, &v_slot13 /*%t329.3*/, &v_slot11 /*i.3*/, mrt_wrap(imm_330));
    const mrt_imm imm_332 = mrt_numv(0.1);
    mrt_put(&v_slot13 /*%t333.3*/, (0.1 * slot11[0]));
    mrt_op(&v_slot5 /*p.7*/, MRT_OP_SUBSASGN, 4, &v_slot6 /*p.6*/, &v_slot13 /*%t333.3*/, &v_slot11 /*i.3*/, mrt_wrap(imm_85));
    goto bb2;
bb4: ;
    const mrt_imm imm_115 = mrt_numv(0.005);
    const mrt_imm imm_116 = mrt_numv(0.05);
    mrt_op(&v_slot4 /*d.1*/, MRT_OP_ZEROS, 3, &v_slot0 /*n.1*/, &v_slot0 /*n.1*/, mrt_wrap(imm_85));
    mrt_put(&v_slot8 /*%t122.1*/, mrt_range_count(1.0, 1.0, slot1[0]));
    mrt_op(&v_slot10 /*hist.2*/, MRT_OP_COPY, 1, mrt_wrap(imm_93));
    mrt_put(&v_slot14 /*%t183.2*/, 0.0);
    mrt_op(&v_slot12 /*v.2*/, MRT_OP_COPY, 1, &v_slot2 /*p.1*/);
    goto bb5;
bb5: ;
    mrt_put(&v_slot14 /*%t239.3*/, (slot14[0] + 1.0));
    mrt_put(&v_slot15 /*%t240.3*/, (double)(slot14[0] <= slot8[0]));
    if (slot15[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot16 /*t.3*/, mrt_loop_index(1.0, 1.0, slot14[0]));
    mrt_put(&v_slot17 /*%t248.4*/, 0.0);
    goto bb8;
bb7: ;
    goto bb1;
bb8: ;
    mrt_put(&v_slot17 /*%t260.5*/, (slot17[0] + 1.0));
    mrt_put(&v_slot19 /*%t261.4*/, (double)(slot17[0] <= 3.0));
    if (slot19[0] != 0.0) goto bb9; else goto bb10;
bb9: ;
    mrt_put(&v_slot21 /*k.6*/, mrt_loop_index(1.0, 1.0, slot17[0]));
    mrt_op(&v_slot23 /*col.4*/, MRT_OP_SUBSREF, 3, &v_slot5 /*p.3*/, MRT_COLON, &v_slot21 /*k.6*/);
    mrt_op(&v_slot25 /*%t317.4*/, MRT_OP_ONES, 2, mrt_wrap(imm_89), &v_slot0 /*n.1*/);
    mrt_op(&v_slot26 /*%t318.4*/, MRT_OP_MTIMES, 2, &v_slot23 /*col.4*/, &v_slot25 /*%t317.4*/);
    mrt_op(&v_slot25 /*%t320.4*/, MRT_OP_ONES, 2, &v_slot0 /*n.1*/, mrt_wrap(imm_89));
    mrt_op(&v_slot23 /*%t321.4*/, MRT_OP_CTRANSPOSE, 1, &v_slot23 /*col.4*/);
    mrt_op(&v_slot27 /*%t322.4*/, MRT_OP_MTIMES, 2, &v_slot25 /*%t320.4*/, &v_slot23 /*%t321.4*/);
    mrt_op(&v_slot23 /*%t323.4*/, MRT_OP_SUB, 2, &v_slot26 /*%t318.4*/, &v_slot27 /*%t322.4*/);
    mrt_op(&v_slot4 /*d.4*/, MRT_OP_SUBSASGN, 5, &v_slot4 /*d.3*/, &v_slot23 /*%t323.4*/, MRT_COLON, MRT_COLON, &v_slot21 /*k.6*/);
    goto bb8;
bb10: ;
    mrt_op(&v_slot18 /*%t263.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*d.3*/, MRT_COLON, MRT_COLON, mrt_wrap(imm_89));
    const mrt_imm imm_264 = mrt_numv(2.0);
    mrt_op(&v_slot18 /*%t265.3*/, MRT_OP_POWER, 2, &v_slot18 /*%t263.3*/, mrt_wrap(imm_264));
    mrt_op(&v_slot20 /*%t267.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*d.3*/, MRT_COLON, MRT_COLON, mrt_wrap(imm_264));
    mrt_op(&v_slot20 /*%t269.3*/, MRT_OP_POWER, 2, &v_slot20 /*%t267.3*/, mrt_wrap(imm_264));
    mrt_op(&v_slot18 /*%t270.3*/, MRT_OP_ADD, 2, &v_slot18 /*%t265.3*/, &v_slot20 /*%t269.3*/);
    mrt_op(&v_slot20 /*%t272.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*d.3*/, MRT_COLON, MRT_COLON, mrt_wrap(imm_85));
    mrt_op(&v_slot20 /*%t274.3*/, MRT_OP_POWER, 2, &v_slot20 /*%t272.3*/, mrt_wrap(imm_264));
    mrt_op(&v_slot18 /*%t275.3*/, MRT_OP_ADD, 2, &v_slot18 /*%t270.3*/, &v_slot20 /*%t274.3*/);
    mrt_op(&v_slot18 /*r2.3*/, MRT_OP_ADD, 2, &v_slot18 /*%t275.3*/, mrt_wrap(imm_116));
    mrt_op(&v_slot20 /*%t278.3*/, MRT_OP_SQRT, 1, &v_slot18 /*r2.3*/);
    mrt_op(&v_slot18 /*%t279.3*/, MRT_OP_TIMES, 2, &v_slot18 /*r2.3*/, &v_slot20 /*%t278.3*/);
    mrt_op(&v_slot18 /*w.3*/, MRT_OP_RDIVIDE, 2, mrt_wrap(imm_89), &v_slot18 /*%t279.3*/);
    mrt_op(&v_slot20 /*a.4*/, MRT_OP_COPY, 1, &v_slot2 /*p.1*/);
    mrt_put(&v_slot22 /*%t290.4*/, 0.0);
    goto bb11;
bb11: ;
    mrt_put(&v_slot22 /*%t297.5*/, (slot22[0] + 1.0));
    mrt_put(&v_slot25 /*%t298.4*/, (double)(slot22[0] <= 3.0));
    if (slot25[0] != 0.0) goto bb12; else goto bb13;
bb12: ;
    mrt_put(&v_slot24 /*k.5*/, mrt_loop_index(1.0, 1.0, slot22[0]));
    mrt_op(&v_slot26 /*%t308.4*/, MRT_OP_SUBSREF, 4, &v_slot4 /*d.3*/, MRT_COLON, MRT_COLON, &v_slot24 /*k.5*/);
    mrt_op(&v_slot26 /*%t309.4*/, MRT_OP_TIMES, 2, &v_slot26 /*%t308.4*/, &v_slot18 /*w.3*/);
    mrt_op(&v_slot27 /*%t310.4*/, MRT_OP_CTRANSPOSE, 1, &v_slot26 /*%t309.4*/);
    mrt_op(&v_slot26 /*%t311.4*/, MRT_OP_SUM, 1, &v_slot27 /*%t310.4*/);
    mrt_op(&v_slot26 /*%t312.4*/, MRT_OP_CTRANSPOSE, 1, &v_slot26 /*%t311.4*/);
    mrt_op(&v_slot20 /*a.5*/, MRT_OP_SUBSASGN, 4, &v_slot20 /*a.4*/, &v_slot26 /*%t312.4*/, MRT_COLON, &v_slot24 /*k.5*/);
    goto bb11;
bb13: ;
    mrt_op(&v_slot18 /*%t299.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_115), &v_slot20 /*a.4*/);
    mrt_op(&v_slot12 /*v.3*/, MRT_OP_SUB, 2, &v_slot12 /*v.2*/, &v_slot18 /*%t299.3*/);
    mrt_op(&v_slot18 /*%t301.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_115), &v_slot12 /*v.3*/);
    mrt_op(&v_slot5 /*p.4*/, MRT_OP_ADD, 2, &v_slot5 /*p.3*/, &v_slot18 /*%t301.3*/);
    mrt_op(&v_slot18 /*%t305.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*p.4*/, mrt_wrap(imm_89), mrt_wrap(imm_89));
    mrt_grow(&v_slot10, MRT_NEEDED);   /* + grow only */
    mrt_op(&v_slot10 /*hist.3*/, MRT_OP_SUBSASGN, 3, &v_slot10 /*hist.2*/, &v_slot18 /*%t305.3*/, &v_slot16 /*t.3*/);
    goto bb5;
}

int main(void)
{
    f_nb3d_driver();
    return 0;
}
