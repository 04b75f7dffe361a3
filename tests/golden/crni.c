/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_crni_driver(void);
static void f_crnich(const mrt_val *arg_86, const mrt_val *arg_87, const mrt_val *arg_88, mrt_val *out_0);
static void f_trisolve(const mrt_val *arg_71, const mrt_val *arg_72, const mrt_val *arg_73, const mrt_val *arg_74, const mrt_val *arg_75, mrt_val *out_0);

/* ---- function crni_driver ---- */
static void f_crni_driver(void)
{
    mrt_enter();
    double slot0[33];            /* stack group (double): u.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 33);
    double slot1[1];            /* stack group (double): %t19.1, %t21.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);

bb0: ;
    const mrt_imm imm_11 = mrt_numv(33.0);
    const mrt_imm imm_12 = mrt_numv(16.0);
    const mrt_imm imm_13 = mrt_numv(1.0);
    f_crnich(mrt_wrap(imm_13), mrt_wrap(imm_11), mrt_wrap(imm_12), &v_slot0 /*u.1*/);
    const mrt_imm imm_15 = mrt_strv("u(mid) = %.8f\\n");
    const mrt_imm imm_18 = mrt_numv(17.0);
    mrt_elem_get(&v_slot1 /*%t19.1*/, &v_slot0 /*u.1*/, 1, 17.0, 0.0, 0.0);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_15), &v_slot1 /*%t19.1*/);
    const mrt_imm imm_20 = mrt_strv("sum(u) = %.8f\\n");
    mrt_op(&v_slot1 /*%t21.1*/, MRT_OP_SUM, 1, &v_slot0 /*u.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_20), &v_slot1 /*%t21.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function crnich ---- */
static void f_crnich(const mrt_val *arg_86, const mrt_val *arg_87, const mrt_val *arg_88, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): c.1, %t95.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (double): %t96.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[1];            /* stack group (unsigned char): r.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (unsigned char): nx.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (unsigned char): nt.1, %t184.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[1];            /* stack group (unsigned char): %t91.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (double): h.1, %t212.2, %t236.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t155.1 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[33];            /* stack group (double): k.1, %t97.1, u.1, d.2, d.3, d.4 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 33);
    double slot9[1];            /* stack group (unsigned char): %t105.1 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[33];            /* stack group (double): u.2, u.3, u.4, u.5 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 33);
    double slot11[33];            /* stack group (double): %t125.2, %t143.3, a.2, a.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 33);
    double slot12[1];            /* stack group (unsigned char): %t144.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[33];            /* stack group (int): b.2, b.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 33);
    double slot14[1];            /* stack group (unsigned char): i.8 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[33];            /* stack group (int): c2.2, c2.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 33);
    double slot16[1];            /* stack group (double): %t296.3, %t299.3, %t300.3, %t309.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (double): %t170.2, %t180.3, %t247.4, %t263.5, %t307.3, %t308.3 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[1];            /* stack group (unsigned char): %t237.3 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t298.3 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[1];            /* stack group (unsigned char): %t181.3, %t264.4 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 1);
    double slot21[1];            /* stack group (unsigned char): i.6, i.7 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 1);
    double slot22[1];            /* stack group (double): %t304.3 */
    mrt_val v_slot22 = {0};
    mrt_bind(&v_slot22, slot22, 1);
    double slot23[1];            /* stack group (unsigned char): %t268.4 */
    mrt_val v_slot23 = {0};
    mrt_bind(&v_slot23, slot23, 1);
    double slot24[1];            /* stack group (double): %t269.4, %t273.4, %t280.4, %t285.3, %t286.3 */
    mrt_val v_slot24 = {0};
    mrt_bind(&v_slot24, slot24, 1);
    double slot25[1];            /* stack group (unsigned char): %t271.4 */
    mrt_val v_slot25 = {0};
    mrt_bind(&v_slot25, slot25, 1);
    double slot26[1];            /* stack group (double): %t272.4, %t275.4, %t277.4, %t279.4 */
    mrt_val v_slot26 = {0};
    mrt_bind(&v_slot26, slot26, 1);
    double slot27[1];            /* stack group (double): %t278.4 */
    mrt_val v_slot27 = {0};
    mrt_bind(&v_slot27, slot27, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_86);
    mrt_op(&v_slot3, MRT_OP_COPY, 1, arg_87);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_88);
bb0: ;
    const mrt_imm imm_89 = mrt_numv(1.0);
    mrt_put(&v_slot5 /*%t91.1*/, (slot3[0] - 1.0));
    mrt_put(&v_slot6 /*h.1*/, mrt_rdiv(1.0, slot5[0]));
    mrt_put(&v_slot8 /*k.1*/, mrt_rdiv(1.0, slot4[0]));
    mrt_put(&v_slot0 /*%t95.1*/, (slot0[0] * slot0[0]));
    mrt_put(&v_slot1 /*%t96.1*/, (slot0[0] * slot8[0]));
    mrt_put(&v_slot8 /*%t97.1*/, (slot6[0] * slot6[0]));
    mrt_put(&v_slot2 /*r.1*/, mrt_rdiv(slot1[0], slot8[0]));
    mrt_op(&v_slot8 /*u.1*/, MRT_OP_ZEROS, 2, &v_slot3 /*nx.1*/, mrt_wrap(imm_89));
    const mrt_imm imm_102 = mrt_numv(2.0);
    mrt_put(&v_slot9 /*%t105.1*/, mrt_range_count(2.0, 1.0, slot5[0]));
    const mrt_imm imm_106 = mrt_numv(0.0);
    mrt_op(&v_slot10 /*u.2*/, MRT_OP_COPY, 1, &v_slot8 /*u.1*/);
    mrt_put(&v_slot11 /*%t125.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot10 /*u.3*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot11 /*%t143.3*/, (slot11[0] + 1.0));
    mrt_put(&v_slot12 /*%t144.3*/, (double)(slot11[0] <= slot9[0]));
    if (slot12[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot14 /*i.8*/, mrt_loop_index(2.0, 1.0, slot11[0]));
    const mrt_imm imm_295 = mrt_numv(3.141592653589793);
    mrt_put(&v_slot16 /*%t296.3*/, (3.141592653589793 * slot6[0]));
    mrt_put(&v_slot19 /*%t298.3*/, (slot14[0] - 1.0));
    mrt_put(&v_slot16 /*%t299.3*/, (slot16[0] * slot19[0]));
    mrt_put(&v_slot16 /*%t300.3*/, sin(slot16[0]));
    const mrt_imm imm_303 = mrt_numv(9.42477796076938);
    mrt_put(&v_slot22 /*%t304.3*/, (9.42477796076938 * slot6[0]));
    mrt_put(&v_slot17 /*%t307.3*/, (slot22[0] * slot19[0]));
    mrt_put(&v_slot17 /*%t308.3*/, sin(slot17[0]));
    mrt_put(&v_slot16 /*%t309.3*/, (slot16[0] + slot17[0]));
    if (!mrt_elem_set(&v_slot10 /*u.5*/, 1, slot14[0], 0.0, 0.0, slot16[0]))
        mrt_op(&v_slot10 /*u.5*/, MRT_OP_SUBSASGN, 3, &v_slot10 /*u.2*/, &v_slot16 /*%t309.3*/, &v_slot14 /*i.8*/);
    goto bb2;
bb4: ;
    mrt_put(&v_slot7 /*%t155.1*/, mrt_range_count(1.0, 1.0, slot3[0]));
    mrt_op(&v_slot11 /*a.2*/, MRT_OP_COPY, 1, &v_slot8 /*u.1*/);
    mrt_put(&v_slot17 /*%t170.2*/, 0.0);
    mrt_op(&v_slot15 /*c2.2*/, MRT_OP_COPY, 1, &v_slot8 /*u.1*/);
    mrt_op(&v_slot13 /*b.2*/, MRT_OP_COPY, 1, &v_slot8 /*u.1*/);
    goto bb5;
bb5: ;
    mrt_put(&v_slot17 /*%t180.3*/, (slot17[0] + 1.0));
    mrt_put(&v_slot20 /*%t181.3*/, (double)(slot17[0] <= slot7[0]));
    if (slot20[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot21 /*i.7*/, mrt_loop_index(1.0, 1.0, slot17[0]));
    mrt_put(&v_slot24 /*%t285.3*/, mrt_rdiv(2.0, slot2[0]));
    mrt_put(&v_slot24 /*%t286.3*/, (2.0 + slot24[0]));
    if (!mrt_elem_set(&v_slot11 /*a.3*/, 1, slot21[0], 0.0, 0.0, slot24[0]))
        mrt_op(&v_slot11 /*a.3*/, MRT_OP_SUBSASGN, 3, &v_slot11 /*a.2*/, &v_slot24 /*%t286.3*/, &v_slot21 /*i.7*/);
    const mrt_imm imm_289 = mrt_numv(-1.0);
    if (!mrt_elem_set(&v_slot13 /*b.3*/, 1, slot21[0], 0.0, 0.0, -1.0))
        mrt_op(&v_slot13 /*b.3*/, MRT_OP_SUBSASGN, 3, &v_slot13 /*b.2*/, mrt_wrap(imm_289), &v_slot21 /*i.7*/);
    if (!mrt_elem_set(&v_slot15 /*c2.3*/, 1, slot21[0], 0.0, 0.0, -1.0))
        mrt_op(&v_slot15 /*c2.3*/, MRT_OP_SUBSASGN, 3, &v_slot15 /*c2.2*/, mrt_wrap(imm_289), &v_slot21 /*i.7*/);
    goto bb5;
bb7: ;
    mrt_put(&v_slot4 /*%t184.1*/, mrt_range_count(1.0, 1.0, slot4[0]));
    mrt_put(&v_slot6 /*%t212.2*/, 0.0);
    goto bb8;
bb8: ;
    mrt_put(&v_slot6 /*%t236.3*/, (slot6[0] + 1.0));
    mrt_put(&v_slot18 /*%t237.3*/, (double)(slot6[0] <= slot4[0]));
    if (slot18[0] != 0.0) goto bb9; else goto bb10;
bb9: ;
    mrt_put(&v_slot17 /*%t247.4*/, 0.0);
    goto bb11;
bb10: ;
    goto bb1;
bb11: ;
    mrt_put(&v_slot17 /*%t263.5*/, (slot17[0] + 1.0));
    mrt_put(&v_slot20 /*%t264.4*/, (double)(slot17[0] <= slot9[0]));
    if (slot20[0] != 0.0) goto bb12; else goto bb13;
bb12: ;
    mrt_put(&v_slot21 /*i.6*/, mrt_loop_index(2.0, 1.0, slot17[0]));
    mrt_put(&v_slot23 /*%t268.4*/, (slot21[0] - 1.0));
    mrt_elem_get(&v_slot24 /*%t269.4*/, &v_slot10 /*u.3*/, 1, slot23[0], 0.0, 0.0);
    mrt_put(&v_slot25 /*%t271.4*/, (slot21[0] + 1.0));
    mrt_elem_get(&v_slot26 /*%t272.4*/, &v_slot10 /*u.3*/, 1, slot25[0], 0.0, 0.0);
    mrt_put(&v_slot24 /*%t273.4*/, (slot24[0] + slot26[0]));
    mrt_put(&v_slot26 /*%t275.4*/, mrt_rdiv(2.0, slot2[0]));
    mrt_put(&v_slot26 /*%t277.4*/, (slot26[0] - 2.0));
    mrt_elem_get(&v_slot27 /*%t278.4*/, &v_slot10 /*u.3*/, 1, slot21[0], 0.0, 0.0);
    mrt_put(&v_slot26 /*%t279.4*/, (slot26[0] * slot27[0]));
    mrt_put(&v_slot24 /*%t280.4*/, (slot24[0] + slot26[0]));
    if (!mrt_elem_set(&v_slot8 /*d.4*/, 1, slot21[0], 0.0, 0.0, slot24[0]))
        mrt_op(&v_slot8 /*d.4*/, MRT_OP_SUBSASGN, 3, &v_slot8 /*d.3*/, &v_slot24 /*%t280.4*/, &v_slot21 /*i.6*/);
    goto bb11;
bb13: ;
    f_trisolve(&v_slot11 /*a.2*/, &v_slot13 /*b.2*/, &v_slot15 /*c2.2*/, &v_slot8 /*d.3*/, &v_slot3 /*nx.1*/, &v_slot10 /*u.4*/);
    goto bb8;
}

/* ---- function trisolve ---- */
static void f_trisolve(const mrt_val *arg_71, const mrt_val *arg_72, const mrt_val *arg_73, const mrt_val *arg_74, const mrt_val *arg_75, mrt_val *out_0)
{
    mrt_enter();
    double slot0[33];            /* stack group (double): a.1, %t150.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 33);
    double slot1[1];            /* stack group (unsigned char): %t156.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[33];            /* stack group (int): b.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 33);
    double slot3[33];            /* stack group (double): x.2, x.3, x.4 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 33);
    double slot4[33];            /* stack group (int): c.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 33);
    double slot5[33];            /* stack group (double): d.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 33);
    double slot6[1];            /* stack group (unsigned char): %t160.1 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (double): %t174.2, %t185.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[33];            /* stack group (unsigned char): w.1, %t186.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 33);
    double slot10[1];            /* stack group (unsigned char): i.4 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[1];            /* stack group (double): %t83.1, %t87.1, %t90.1, %t188.3, %t196.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (unsigned char): %t96.1 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[33];            /* stack group (double): w.2, w.3, w.4 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 33);
    double slot14[33];            /* stack group (double): %t89.1, g.2, g.3, g.4 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 33);
    double slot15[1];            /* stack group (unsigned char): %t97.1 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (int): %t189.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (double): %t193.3, %t195.3 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[1];            /* stack group (double): %t123.2, %t146.3, %t192.3, %t194.3 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t191.3 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[1];            /* stack group (unsigned char): %t147.3 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 1);
    double slot21[1];            /* stack group (unsigned char): i.5 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 1);
    double slot22[1];            /* stack group (double): %t199.3, %t209.3, %t211.3, %t217.3, %t219.3 */
    mrt_val v_slot22 = {0};
    mrt_bind(&v_slot22, slot22, 1);
    double slot23[1];            /* stack group (int): %t200.3 */
    mrt_val v_slot23 = {0};
    mrt_bind(&v_slot23, slot23, 1);
    double slot24[1];            /* stack group (double): %t216.3, %t218.3 */
    mrt_val v_slot24 = {0};
    mrt_bind(&v_slot24, slot24, 1);
    double slot25[1];            /* stack group (unsigned char): %t202.3 */
    mrt_val v_slot25 = {0};
    mrt_bind(&v_slot25, slot25, 1);
    double slot26[1];            /* stack group (double): %t215.3 */
    mrt_val v_slot26 = {0};
    mrt_bind(&v_slot26, slot26, 1);
    double slot27[1];            /* stack group (int): %t203.3 */
    mrt_val v_slot27 = {0};
    mrt_bind(&v_slot27, slot27, 1);
    double slot28[1];            /* stack group (unsigned char): %t204.3 */
    mrt_val v_slot28 = {0};
    mrt_bind(&v_slot28, slot28, 1);
    double slot29[1];            /* stack group (double): %t208.3 */
    mrt_val v_slot29 = {0};
    mrt_bind(&v_slot29, slot29, 1);
    double slot30[1];            /* stack group (double): %t207.3 */
    mrt_val v_slot30 = {0};
    mrt_bind(&v_slot30, slot30, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_71);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_72);
    mrt_op(&v_slot4, MRT_OP_COPY, 1, arg_73);
    mrt_op(&v_slot5, MRT_OP_COPY, 1, arg_74);
    mrt_op(&v_slot7, MRT_OP_COPY, 1, arg_75);
bb0: ;
    const mrt_imm imm_76 = mrt_numv(1.0);
    mrt_op(&v_slot9 /*w.1*/, MRT_OP_ZEROS, 2, &v_slot7 /*n.1*/, mrt_wrap(imm_76));
    const mrt_imm imm_82 = mrt_numv(2.0);
    mrt_elem_get(&v_slot11 /*%t83.1*/, &v_slot0 /*a.1*/, 1, 2.0, 0.0, 0.0);
    mrt_op(&v_slot13 /*w.2*/, MRT_OP_SUBSASGN, 3, &v_slot9 /*w.1*/, &v_slot11 /*%t83.1*/, mrt_wrap(imm_82));
    mrt_elem_get(&v_slot11 /*%t87.1*/, &v_slot5 /*d.1*/, 1, 2.0, 0.0, 0.0);
    mrt_elem_get(&v_slot14 /*%t89.1*/, &v_slot13 /*w.2*/, 1, 2.0, 0.0, 0.0);
    mrt_put(&v_slot11 /*%t90.1*/, mrt_rdiv(slot11[0], slot14[0]));
    mrt_op(&v_slot14 /*g.2*/, MRT_OP_SUBSASGN, 3, &v_slot9 /*w.1*/, &v_slot11 /*%t90.1*/, mrt_wrap(imm_82));
    const mrt_imm imm_94 = mrt_numv(3.0);
    mrt_put(&v_slot12 /*%t96.1*/, (slot7[0] - 1.0));
    mrt_put(&v_slot15 /*%t97.1*/, mrt_range_count(3.0, 1.0, slot12[0]));
    const mrt_imm imm_98 = mrt_numv(0.0);
    mrt_put(&v_slot18 /*%t123.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot3 /*x.3*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot18 /*%t146.3*/, (slot18[0] + 1.0));
    mrt_put(&v_slot20 /*%t147.3*/, (double)(slot18[0] <= slot15[0]));
    if (slot20[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot21 /*i.5*/, mrt_loop_index(3.0, 1.0, slot18[0]));
    mrt_elem_get(&v_slot22 /*%t199.3*/, &v_slot0 /*a.1*/, 1, slot21[0], 0.0, 0.0);
    mrt_elem_get(&v_slot23 /*%t200.3*/, &v_slot2 /*b.1*/, 1, slot21[0], 0.0, 0.0);
    mrt_put(&v_slot25 /*%t202.3*/, (slot21[0] - 1.0));
    mrt_elem_get(&v_slot27 /*%t203.3*/, &v_slot4 /*c.1*/, 1, slot25[0], 0.0, 0.0);
    mrt_put(&v_slot28 /*%t204.3*/, (slot23[0] * slot27[0]));
    mrt_elem_get(&v_slot30 /*%t207.3*/, &v_slot13 /*w.3*/, 1, slot25[0], 0.0, 0.0);
    mrt_put(&v_slot29 /*%t208.3*/, mrt_rdiv(slot28[0], slot30[0]));
    mrt_put(&v_slot22 /*%t209.3*/, (slot22[0] - slot29[0]));
    if (!mrt_elem_set(&v_slot13 /*w.4*/, 1, slot21[0], 0.0, 0.0, slot22[0]))
        mrt_op(&v_slot13 /*w.4*/, MRT_OP_SUBSASGN, 3, &v_slot13 /*w.3*/, &v_slot22 /*%t209.3*/, &v_slot21 /*i.5*/);
    mrt_elem_get(&v_slot22 /*%t211.3*/, &v_slot5 /*d.1*/, 1, slot21[0], 0.0, 0.0);
    mrt_elem_get(&v_slot26 /*%t215.3*/, &v_slot14 /*g.3*/, 1, slot25[0], 0.0, 0.0);
    mrt_put(&v_slot24 /*%t216.3*/, (slot23[0] * slot26[0]));
    mrt_put(&v_slot22 /*%t217.3*/, (slot22[0] - slot24[0]));
    mrt_elem_get(&v_slot24 /*%t218.3*/, &v_slot13 /*w.4*/, 1, slot21[0], 0.0, 0.0);
    mrt_put(&v_slot22 /*%t219.3*/, mrt_rdiv(slot22[0], slot24[0]));
    if (!mrt_elem_set(&v_slot14 /*g.4*/, 1, slot21[0], 0.0, 0.0, slot22[0]))
        mrt_op(&v_slot14 /*g.4*/, MRT_OP_SUBSASGN, 3, &v_slot14 /*g.3*/, &v_slot22 /*%t219.3*/, &v_slot21 /*i.5*/);
    goto bb2;
bb4: ;
    mrt_elem_get(&v_slot0 /*%t150.1*/, &v_slot14 /*g.3*/, 1, slot12[0], 0.0, 0.0);
    mrt_op(&v_slot3 /*x.2*/, MRT_OP_SUBSASGN, 3, &v_slot9 /*w.1*/, &v_slot0 /*%t150.1*/, &v_slot12 /*%t96.1*/);
    mrt_put(&v_slot1 /*%t156.1*/, (slot7[0] - 2.0));
    const mrt_imm imm_158 = mrt_numv(-1.0);
    mrt_put(&v_slot6 /*%t160.1*/, mrt_range_count(slot1[0], -1.0, 2.0));
    mrt_put(&v_slot8 /*%t174.2*/, 0.0);
    goto bb5;
bb5: ;
    mrt_put(&v_slot8 /*%t185.3*/, (slot8[0] + 1.0));
    mrt_put(&v_slot9 /*%t186.3*/, (double)(slot8[0] <= slot6[0]));
    if (slot9[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot10 /*i.4*/, mrt_loop_index(slot1[0], -1.0, slot8[0]));
    mrt_elem_get(&v_slot11 /*%t188.3*/, &v_slot14 /*g.3*/, 1, slot10[0], 0.0, 0.0);
    mrt_elem_get(&v_slot16 /*%t189.3*/, &v_slot4 /*c.1*/, 1, slot10[0], 0.0, 0.0);
    mrt_put(&v_slot19 /*%t191.3*/, (slot10[0] + 1.0));
    mrt_elem_get(&v_slot18 /*%t192.3*/, &v_slot3 /*x.3*/, 1, slot19[0], 0.0, 0.0);
    mrt_put(&v_slot17 /*%t193.3*/, (slot16[0] * slot18[0]));
    mrt_elem_get(&v_slot18 /*%t194.3*/, &v_slot13 /*w.3*/, 1, slot10[0], 0.0, 0.0);
    mrt_put(&v_slot17 /*%t195.3*/, mrt_rdiv(slot17[0], slot18[0]));
    mrt_put(&v_slot11 /*%t196.3*/, (slot11[0] - slot17[0]));
    if (!mrt_elem_set(&v_slot3 /*x.4*/, 1, slot10[0], 0.0, 0.0, slot11[0]))
        mrt_op(&v_slot3 /*x.4*/, MRT_OP_SUBSASGN, 3, &v_slot3 /*x.3*/, &v_slot11 /*%t196.3*/, &v_slot10 /*i.4*/);
    goto bb5;
bb7: ;
    goto bb1;
}

int main(void)
{
    f_crni_driver();
    return 0;
}
