/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_diff_driver(void);
static void f_young(const mrt_val *arg_73, mrt_val *out_0);

/* ---- function diff_driver ---- */
static void f_diff_driver(void)
{
    mrt_enter();
    mrt_val v_slot0 = {0};          /* heap group (double): inten.1 */
    mrt_bind(&v_slot0, NULL, 0);
    mrt_val v_slot1 = {0};          /* heap group (double): peak.1 */
    mrt_bind(&v_slot1, NULL, 0);
    mrt_val v_slot2 = {0};          /* heap group (double): %t13.1 */
    mrt_bind(&v_slot2, NULL, 0);
    mrt_val v_slot3 = {0};          /* heap group (int): at.1 */
    mrt_bind(&v_slot3, NULL, 0);

bb0: ;
    const mrt_imm imm_7 = mrt_numv(128.0);
    mrt_resize(&v_slot0, MRT_NEEDED); /* +- resize */
    f_young(mrt_wrap(imm_7), &v_slot0 /*inten.1*/);
    mrt_multi(MRT_OP_MAX, 1, &v_slot0 /*inten.1*/, 2, &v_slot1 /*peak.1*/, &v_slot3 /*at.1*/);
    const mrt_imm imm_11 = mrt_strv("peak intensity = %.6f at %d\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 3, mrt_wrap(imm_11), &v_slot1 /*peak.1*/, &v_slot3 /*at.1*/);
    const mrt_imm imm_12 = mrt_strv("mean intensity = %.6f\\n");
    mrt_resize(&v_slot2, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot2 /*%t13.1*/, MRT_OP_MEAN, 1, &v_slot0 /*inten.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_12), &v_slot2 /*%t13.1*/);
    goto bb1;
bb1: ;
    mrt_free(&v_slot0);
    mrt_free(&v_slot1);
    mrt_free(&v_slot2);
    mrt_free(&v_slot3);
    mrt_leave();
    return;
}

/* ---- function young ---- */
static void f_young(const mrt_val *arg_73, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): npts.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    mrt_val v_slot1 = {0};          /* heap group (double): %t156.1 */
    mrt_bind(&v_slot1, NULL, 0);
    mrt_val v_slot2 = {0};          /* heap group (double): %t157.1 */
    mrt_bind(&v_slot2, NULL, 0);
    double slot3[128];            /* stack group (double): x.1, %t95.1, %t97.1, %t100.1, inten.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 128);
    double slot4[128];            /* stack group (mrt_complex): r2.1, %t125.1, amp.1, %t128.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 128);
    double slot5[128];            /* stack group (double): %t86.1, %t88.1, %t91.1, m.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 128);
    double slot6[128];            /* stack group (mrt_complex): r1.1, %t124.1, %t127.1 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 128);
    mrt_val v_slot7 = {0};          /* heap group (double): inten.2 */
    mrt_bind(&v_slot7, NULL, 0);
    double slot8[128];            /* stack group (mrt_complex): %t106.1, %t112.1, %t113.1, a1.1 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 128);
    double slot9[1];            /* stack group (unsigned char): %t135.1 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 1);
    double slot10[128];            /* stack group (mrt_complex): %t107.1, %t115.1, %t121.1, %t122.1, a2.1 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 128);
    mrt_val v_slot11 = {0};          /* heap group (double): hist.2, hist.3, hist.4 */
    mrt_bind(&v_slot11, NULL, 0);
    double slot12[1];            /* stack group (mrt_complex): %t110.1 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (double): j.2, j.3, j.4 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[128];            /* stack group (mrt_complex): %t116.1 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 128);
    double slot15[1];            /* stack group (double): %t146.2, %t154.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (unsigned char): %t155.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[1];            /* stack group (unsigned char): i.3 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[1];            /* stack group (double): %t160.3 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t161.3, %t162.3 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_73);
bb0: ;
    const mrt_imm imm_137 = mrt_emptyv();
    const mrt_imm imm_76 = mrt_numv(1.0);
    const mrt_imm imm_79 = mrt_numv(2.0);
    const mrt_imm imm_80 = mrt_numv(-0.01);
    const mrt_imm imm_82 = mrt_numv(0.01);
    mrt_op(&v_slot3 /*x.1*/, MRT_OP_LINSPACE, 3, mrt_wrap(imm_80), mrt_wrap(imm_82), &v_slot0 /*npts.1*/);
    const mrt_imm imm_85 = mrt_numv(0.0005);
    mrt_op(&v_slot5 /*%t86.1*/, MRT_OP_SUB, 2, &v_slot3 /*x.1*/, mrt_wrap(imm_85));
    mrt_op(&v_slot5 /*%t88.1*/, MRT_OP_POWER, 2, &v_slot5 /*%t86.1*/, mrt_wrap(imm_79));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot5 /*%t91.1*/;
      size_t i, n = MRT_NUMEL(*d);
      double s = 1.0; /* scalar operand */
      for (i = 0; i < n; i++) d->re[i] = (d->re[i] + s);
    }
    mrt_op(&v_slot6 /*r1.1*/, MRT_OP_SQRT, 1, &v_slot5 /*%t91.1*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot3 /*%t95.1*/;
      size_t i, n = MRT_NUMEL(*d);
      double s = 0.0005; /* scalar operand */
      for (i = 0; i < n; i++) d->re[i] = (d->re[i] + s);
    }
    mrt_op(&v_slot3 /*%t97.1*/, MRT_OP_POWER, 2, &v_slot3 /*%t95.1*/, mrt_wrap(imm_79));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot3 /*%t100.1*/;
      size_t i, n = MRT_NUMEL(*d);
      double s = 1.0; /* scalar operand */
      for (i = 0; i < n; i++) d->re[i] = (d->re[i] + s);
    }
    mrt_op(&v_slot4 /*r2.1*/, MRT_OP_SQRT, 1, &v_slot3 /*%t100.1*/);
    const mrt_imm imm_105 = mrt_numv(12566370.614359174);
    mrt_op(&v_slot8 /*%t106.1*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_105), &v_slot6 /*r1.1*/);
    mrt_op(&v_slot10 /*%t107.1*/, MRT_OP_COS, 1, &v_slot8 /*%t106.1*/);
    const mrt_imm imm_109 = mrt_numv(-1.0);
    mrt_op(&v_slot12 /*%t110.1*/, MRT_OP_SQRT, 1, mrt_wrap(imm_109));
    mrt_op(&v_slot8 /*%t112.1*/, MRT_OP_SIN, 1, &v_slot8 /*%t106.1*/);
    mrt_op(&v_slot8 /*%t113.1*/, MRT_OP_MTIMES, 2, &v_slot12 /*%t110.1*/, &v_slot8 /*%t112.1*/);
    mrt_op(&v_slot8 /*a1.1*/, MRT_OP_ADD, 2, &v_slot10 /*%t107.1*/, &v_slot8 /*%t113.1*/);
    mrt_op(&v_slot10 /*%t115.1*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_105), &v_slot4 /*r2.1*/);
    mrt_op(&v_slot14 /*%t116.1*/, MRT_OP_COS, 1, &v_slot10 /*%t115.1*/);
    mrt_op(&v_slot10 /*%t121.1*/, MRT_OP_SIN, 1, &v_slot10 /*%t115.1*/);
    mrt_op(&v_slot10 /*%t122.1*/, MRT_OP_MTIMES, 2, &v_slot12 /*%t110.1*/, &v_slot10 /*%t121.1*/);
    mrt_op(&v_slot10 /*a2.1*/, MRT_OP_ADD, 2, &v_slot14 /*%t116.1*/, &v_slot10 /*%t122.1*/);
    mrt_op(&v_slot6 /*%t124.1*/, MRT_OP_RDIVIDE, 2, &v_slot8 /*a1.1*/, &v_slot6 /*r1.1*/);
    mrt_op(&v_slot4 /*%t125.1*/, MRT_OP_RDIVIDE, 2, &v_slot10 /*a2.1*/, &v_slot4 /*r2.1*/);
    mrt_op(&v_slot4 /*amp.1*/, MRT_OP_ADD, 2, &v_slot6 /*%t124.1*/, &v_slot4 /*%t125.1*/);
    mrt_op(&v_slot6 /*%t127.1*/, MRT_OP_CONJ, 1, &v_slot4 /*amp.1*/);
    mrt_op(&v_slot4 /*%t128.1*/, MRT_OP_TIMES, 2, &v_slot4 /*amp.1*/, &v_slot6 /*%t127.1*/);
    mrt_op(&v_slot3 /*inten.1*/, MRT_OP_REAL, 1, &v_slot4 /*%t128.1*/);
    mrt_op(&v_slot5 /*m.1*/, MRT_OP_MEAN, 1, &v_slot3 /*inten.1*/);
    const mrt_imm imm_132 = mrt_numv(0.0);
    mrt_put(&v_slot9 /*%t135.1*/, mrt_range_count(1.0, 1.0, slot0[0]));
    mrt_op(&v_slot11 /*hist.2*/, MRT_OP_COPY, 1, mrt_wrap(imm_137));
    mrt_put(&v_slot15 /*%t146.2*/, 0.0);
    mrt_put(&v_slot13 /*j.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot7 /*inten.2*/);
    mrt_free(&v_slot1);
    mrt_free(&v_slot2);
    mrt_free(&v_slot7);
    mrt_free(&v_slot11);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot15 /*%t154.3*/, (slot15[0] + 1.0));
    mrt_put(&v_slot16 /*%t155.3*/, (double)(slot15[0] <= slot9[0]));
    if (slot16[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot17 /*i.3*/, mrt_loop_index(1.0, 1.0, slot15[0]));
    mrt_elem_get(&v_slot18 /*%t160.3*/, &v_slot3 /*inten.1*/, 1, slot17[0], 0.0, 0.0);
    mrt_op(&v_slot19 /*%t161.3*/, MRT_OP_GT, 2, &v_slot18 /*%t160.3*/, &v_slot5 /*m.1*/);
    mrt_op(&v_slot19 /*%t162.3*/, MRT_OP_ISTRUE, 1, &v_slot19 /*%t161.3*/);
    if (slot19[0] != 0.0) goto bb6; else goto bb7;
bb4: ;
    mrt_resize(&v_slot1, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot1 /*%t156.1*/, MRT_OP_MEAN, 1, &v_slot11 /*hist.2*/);
    mrt_resize(&v_slot2, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot2 /*%t157.1*/, MRT_OP_MRDIVIDE, 2, &v_slot1 /*%t156.1*/, &v_slot5 /*m.1*/);
    mrt_resize(&v_slot7, MRT_NEEDED); /* +- resize */
    mrt_op(&v_slot7 /*inten.2*/, MRT_OP_MTIMES, 2, &v_slot3 /*inten.1*/, &v_slot2 /*%t157.1*/);
    goto bb1;
bb5: ;
    goto bb2;
bb6: ;
    mrt_put(&v_slot13 /*j.3*/, (slot13[0] + 1.0));
    mrt_grow(&v_slot11, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot11 /*hist.3*/, 1, slot13[0], 0.0, 0.0, slot18[0]))
        mrt_op(&v_slot11 /*hist.3*/, MRT_OP_SUBSASGN, 3, &v_slot11 /*hist.2*/, &v_slot18 /*%t160.3*/, &v_slot13 /*j.3*/);
    goto bb5;
bb7: ;
    goto bb5;
}

int main(void)
{
    f_diff_driver();
    return 0;
}
