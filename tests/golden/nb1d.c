/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_nb1d_driver(void);
static void f_nbody1d(const mrt_val *arg_60, const mrt_val *arg_61, mrt_val *out_0, mrt_val *out_1);

/* ---- function nb1d_driver ---- */
static void f_nb1d_driver(void)
{
    mrt_enter();
    double slot0[12];            /* stack group (double): x.1, %t17.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 12);
    double slot1[1];            /* stack group (int): %t19.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    mrt_val v_slot2 = {0};          /* heap group (double): hist.1 */
    mrt_bind(&v_slot2, NULL, 0);
    double slot3[1];            /* stack group (double): %t15.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (double): %t16.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);

bb0: ;
    const mrt_imm imm_10 = mrt_numv(12.0);
    const mrt_imm imm_11 = mrt_numv(8.0);
    f_nbody1d(mrt_wrap(imm_10), mrt_wrap(imm_11), &v_slot0 /*x.1*/, &v_slot2 /*hist.1*/);
    const mrt_imm imm_14 = mrt_strv("spread   = %.8f\\n");
    mrt_op(&v_slot3 /*%t15.1*/, MRT_OP_MAX, 1, &v_slot0 /*x.1*/);
    mrt_op(&v_slot4 /*%t16.1*/, MRT_OP_MIN, 1, &v_slot0 /*x.1*/);
    mrt_op(&v_slot0 /*%t17.1*/, MRT_OP_SUB, 2, &v_slot3 /*%t15.1*/, &v_slot4 /*%t16.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_14), &v_slot0 /*%t17.1*/);
    const mrt_imm imm_18 = mrt_strv("tracked  = %d\\n");
    mrt_op(&v_slot1 /*%t19.1*/, MRT_OP_NUMEL, 1, &v_slot2 /*hist.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_18), &v_slot1 /*%t19.1*/);
    goto bb1;
bb1: ;
    mrt_free(&v_slot2);
    mrt_leave();
    return;
}

/* ---- function nbody1d ---- */
static void f_nbody1d(const mrt_val *arg_60, const mrt_val *arg_61, mrt_val *out_0, mrt_val *out_1)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (unsigned char): steps.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[12];            /* stack group (unsigned char): x.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 12);
    double slot3[1];            /* stack group (unsigned char): %t70.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[12];            /* stack group (double): x.2, x.3, x.4, x.5 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 12);
    double slot5[12];            /* stack group (int): m.2, m.3 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 12);
    double slot6[1];            /* stack group (double): %t83.2, %t93.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t100.1 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t94.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    mrt_val v_slot9 = {0};          /* heap group (double): hist.2, hist.3 */
    mrt_bind(&v_slot9, NULL, 0);
    double slot10[1];            /* stack group (unsigned char): i.6 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[12];            /* stack group (double): v.2, v.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 12);
    double slot12[1];            /* stack group (unsigned char): %t264.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[1];            /* stack group (int): %t265.3, %t269.3, %t270.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[1];            /* stack group (double): %t138.2, %t171.3 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): %t172.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[1];            /* stack group (unsigned char): t.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 1);
    double slot17[12];            /* stack group (double): f.4, %t205.3, %t207.3, %t210.3, f.5 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 12);
    double slot18[1];            /* stack group (double): %t182.4, %t203.5 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 1);
    double slot19[1];            /* stack group (unsigned char): %t204.4 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);
    double slot20[1];            /* stack group (unsigned char): i.5 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 1);
    double slot21[1];            /* stack group (double): fi.5, fi.6, fi.7 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 1);
    double slot22[1];            /* stack group (double): %t219.5, %t234.6 */
    mrt_val v_slot22 = {0};
    mrt_bind(&v_slot22, slot22, 1);
    double slot23[1];            /* stack group (unsigned char): %t235.5 */
    mrt_val v_slot23 = {0};
    mrt_bind(&v_slot23, slot23, 1);
    double slot24[1];            /* stack group (unsigned char): j.5 */
    mrt_val v_slot24 = {0};
    mrt_bind(&v_slot24, slot24, 1);
    double slot25[1];            /* stack group (int): %t243.5 */
    mrt_val v_slot25 = {0};
    mrt_bind(&v_slot25, slot25, 1);
    double slot26[1];            /* stack group (double): %t244.5, %t249.5 */
    mrt_val v_slot26 = {0};
    mrt_bind(&v_slot26, slot26, 1);
    double slot27[1];            /* stack group (unsigned char): %t238.5, %t239.5 */
    mrt_val v_slot27 = {0};
    mrt_bind(&v_slot27, slot27, 1);
    double slot28[1];            /* stack group (double): %t240.5, dx.5, %t245.5, %t247.5, %t248.5 */
    mrt_val v_slot28 = {0};
    mrt_bind(&v_slot28, slot28, 1);
    double slot29[1];            /* stack group (double): %t241.5 */
    mrt_val v_slot29 = {0};
    mrt_bind(&v_slot29, slot29, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_60);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_61);
bb0: ;
    const mrt_imm imm_72 = mrt_emptyv();
    const mrt_imm imm_62 = mrt_numv(1.0);
    mrt_op(&v_slot2 /*x.1*/, MRT_OP_ZEROS, 2, &v_slot0 /*n.1*/, mrt_wrap(imm_62));
    mrt_put(&v_slot3 /*%t70.1*/, mrt_range_count(1.0, 1.0, slot0[0]));
    const mrt_imm imm_71 = mrt_numv(0.0);
    mrt_op(&v_slot4 /*x.2*/, MRT_OP_COPY, 1, &v_slot2 /*x.1*/);
    mrt_put(&v_slot6 /*%t83.2*/, 0.0);
    mrt_op(&v_slot5 /*m.2*/, MRT_OP_COPY, 1, &v_slot2 /*x.1*/);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot4 /*x.3*/);
    mrt_op(out_1, MRT_OP_COPY, 1, &v_slot9 /*hist.2*/);
    mrt_free(&v_slot9);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot6 /*%t93.3*/, (slot6[0] + 1.0));
    mrt_put(&v_slot8 /*%t94.3*/, (double)(slot6[0] <= slot3[0]));
    if (slot8[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot10 /*i.6*/, mrt_loop_index(1.0, 1.0, slot6[0]));
    const mrt_imm imm_263 = mrt_numv(2.0);
    mrt_put(&v_slot12 /*%t264.3*/, mrt_rdiv(slot0[0], 2.0));
    mrt_put(&v_slot13 /*%t265.3*/, (slot10[0] - slot12[0]));
    if (!mrt_elem_set(&v_slot4 /*x.5*/, 1, slot10[0], 0.0, 0.0, slot13[0]))
        mrt_op(&v_slot4 /*x.5*/, MRT_OP_SUBSASGN, 3, &v_slot4 /*x.2*/, &v_slot13 /*%t265.3*/, &v_slot10 /*i.6*/);
    const mrt_imm imm_268 = mrt_numv(3.0);
    mrt_put(&v_slot13 /*%t269.3*/, mrt_mod(slot10[0], 3.0));
    mrt_put(&v_slot13 /*%t270.3*/, (1.0 + slot13[0]));
    if (!mrt_elem_set(&v_slot5 /*m.3*/, 1, slot10[0], 0.0, 0.0, slot13[0]))
        mrt_op(&v_slot5 /*m.3*/, MRT_OP_SUBSASGN, 3, &v_slot5 /*m.2*/, &v_slot13 /*%t270.3*/, &v_slot10 /*i.6*/);
    goto bb2;
bb4: ;
    const mrt_imm imm_95 = mrt_numv(0.01);
    const mrt_imm imm_96 = mrt_numv(0.1);
    mrt_put(&v_slot7 /*%t100.1*/, mrt_range_count(1.0, 1.0, slot1[0]));
    mrt_op(&v_slot9 /*hist.2*/, MRT_OP_COPY, 1, mrt_wrap(imm_72));
    mrt_put(&v_slot14 /*%t138.2*/, 0.0);
    mrt_op(&v_slot11 /*v.2*/, MRT_OP_COPY, 1, &v_slot2 /*x.1*/);
    goto bb5;
bb5: ;
    mrt_put(&v_slot14 /*%t171.3*/, (slot14[0] + 1.0));
    mrt_put(&v_slot15 /*%t172.3*/, (double)(slot14[0] <= slot7[0]));
    if (slot15[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot16 /*t.3*/, mrt_loop_index(1.0, 1.0, slot14[0]));
    mrt_op(&v_slot17 /*f.4*/, MRT_OP_COPY, 1, &v_slot2 /*x.1*/);
    mrt_put(&v_slot18 /*%t182.4*/, 0.0);
    goto bb8;
bb7: ;
    goto bb1;
bb8: ;
    mrt_put(&v_slot18 /*%t203.5*/, (slot18[0] + 1.0));
    mrt_put(&v_slot19 /*%t204.4*/, (double)(slot18[0] <= slot3[0]));
    if (slot19[0] != 0.0) goto bb9; else goto bb10;
bb9: ;
    mrt_put(&v_slot20 /*i.5*/, mrt_loop_index(1.0, 1.0, slot18[0]));
    mrt_put(&v_slot21 /*fi.5*/, 0.0);
    mrt_put(&v_slot22 /*%t219.5*/, 0.0);
    goto bb11;
bb10: ;
    mrt_op(&v_slot17 /*%t205.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_95), &v_slot17 /*f.4*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot11 /*v.3*/;
      const mrt_val *r = &v_slot17 /*%t205.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot17 /*%t207.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_95), &v_slot11 /*v.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot4 /*x.4*/;
      const mrt_val *r = &v_slot17 /*%t207.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_elem_get(&v_slot17 /*%t210.3*/, &v_slot4 /*x.4*/, 1, 1.0, 0.0, 0.0);
    mrt_grow(&v_slot9, MRT_NEEDED);   /* + grow only */
    if (!mrt_elem_set(&v_slot9 /*hist.3*/, 1, slot16[0], 0.0, 0.0, slot17[0]))
        mrt_op(&v_slot9 /*hist.3*/, MRT_OP_SUBSASGN, 3, &v_slot9 /*hist.2*/, &v_slot17 /*%t210.3*/, &v_slot16 /*t.3*/);
    goto bb5;
bb11: ;
    mrt_put(&v_slot22 /*%t234.6*/, (slot22[0] + 1.0));
    mrt_put(&v_slot23 /*%t235.5*/, (double)(slot22[0] <= slot3[0]));
    if (slot23[0] != 0.0) goto bb12; else goto bb13;
bb12: ;
    mrt_put(&v_slot24 /*j.5*/, mrt_loop_index(1.0, 1.0, slot22[0]));
    mrt_put(&v_slot27 /*%t238.5*/, (double)(slot24[0] != slot20[0]));
    mrt_put(&v_slot27 /*%t239.5*/, (double)(slot27[0] != 0.0));
    if (slot27[0] != 0.0) goto bb15; else goto bb16;
bb13: ;
    if (!mrt_elem_set(&v_slot17 /*f.5*/, 1, slot20[0], 0.0, 0.0, slot21[0]))
        mrt_op(&v_slot17 /*f.5*/, MRT_OP_SUBSASGN, 3, &v_slot17 /*f.4*/, &v_slot21 /*fi.5*/, &v_slot20 /*i.5*/);
    goto bb8;
bb14: ;
    goto bb11;
bb15: ;
    mrt_elem_get(&v_slot28 /*%t240.5*/, &v_slot4 /*x.3*/, 1, slot24[0], 0.0, 0.0);
    mrt_elem_get(&v_slot29 /*%t241.5*/, &v_slot4 /*x.3*/, 1, slot20[0], 0.0, 0.0);
    mrt_put(&v_slot28 /*dx.5*/, (slot28[0] - slot29[0]));
    mrt_elem_get(&v_slot25 /*%t243.5*/, &v_slot5 /*m.2*/, 1, slot24[0], 0.0, 0.0);
    mrt_put(&v_slot26 /*%t244.5*/, (slot25[0] * slot28[0]));
    mrt_put(&v_slot28 /*%t245.5*/, fabs(slot28[0]));
    const mrt_imm imm_246 = mrt_numv(3.0);
    mrt_put(&v_slot28 /*%t247.5*/, pow(slot28[0], 3.0));
    mrt_put(&v_slot28 /*%t248.5*/, (slot28[0] + 0.1));
    mrt_put(&v_slot26 /*%t249.5*/, mrt_rdiv(slot26[0], slot28[0]));
    mrt_put(&v_slot21 /*fi.6*/, (slot21[0] + slot26[0]));
    goto bb14;
bb16: ;
    goto bb14;
}

int main(void)
{
    f_nb1d_driver();
    return 0;
}
