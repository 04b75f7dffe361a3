/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_fiff_driver(void);
static void f_fiff(const mrt_val *arg_106, const mrt_val *arg_107, mrt_val *out_0);

/* ---- function fiff_driver ---- */
static void f_fiff_driver(void)
{
    mrt_enter();
    double slot0[576];            /* stack group (double): u.1, %t27.1, %t29.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 576);
    double slot1[24];            /* stack group (double): %t25.1, %t28.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 24);

bb0: ;
    const mrt_imm imm_15 = mrt_numv(24.0);
    const mrt_imm imm_16 = mrt_numv(8.0);
    f_fiff(mrt_wrap(imm_15), mrt_wrap(imm_16), &v_slot0 /*u.1*/);
    const mrt_imm imm_18 = mrt_strv("u(center) = %.8f\\n");
    const mrt_imm imm_20 = mrt_numv(12.0);
    mrt_elem_get(&v_slot1 /*%t25.1*/, &v_slot0 /*u.1*/, 2, 12.0, 12.0, 0.0);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_18), &v_slot1 /*%t25.1*/);
    const mrt_imm imm_26 = mrt_strv("checksum  = %.8f\\n");
    mrt_op(&v_slot0 /*%t27.1*/, MRT_OP_ABS, 1, &v_slot0 /*u.1*/);
    mrt_op(&v_slot1 /*%t28.1*/, MRT_OP_SUM, 1, &v_slot0 /*%t27.1*/);
    mrt_op(&v_slot0 /*%t29.1*/, MRT_OP_SUM, 1, &v_slot1 /*%t28.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_26), &v_slot0 /*%t29.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function fiff ---- */
static void f_fiff(const mrt_val *arg_106, const mrt_val *arg_107, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (unsigned char): steps.1, %t178.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[576];            /* stack group (unsigned char): u0.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 576);
    double slot3[1];            /* stack group (unsigned char): %t113.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (unsigned char): %t114.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[576];            /* stack group (double): u1.3 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 576);
    double slot6[576];            /* stack group (double): u1.2, u0.3, %t372.3, u1.5, u1.6 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 576);
    double slot7[1];            /* stack group (double): %t144.2, %t172.3, %t245.2, %t309.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[1];            /* stack group (unsigned char): %t173.3, %t310.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 1);
    double slot9[22];            /* stack group (unsigned char): %t316.3, %t317.3, i.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 22);
    double slot10[576];            /* stack group (double): %t339.3, %t340.3, %t348.3, %t360.3, %t371.3, %t373.3, u2.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 576);
    double slot11[22];            /* stack group (unsigned char): %t321.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 22);
    double slot12[1];            /* stack group (double): %t385.4, %t405.5 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[576];            /* stack group (double): %t322.3, %t330.3, %t347.3, %t358.3, %t359.3, lap.4 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 576);
    double slot14[1];            /* stack group (unsigned char): %t406.4 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 1);
    double slot15[1];            /* stack group (unsigned char): j.4 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 1);
    double slot16[22];            /* stack group (unsigned char): %t324.3, %t410.4 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 22);
    double slot17[1];            /* stack group (double): %t411.4, %t414.4, %t415.4, %t424.4 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 1);
    double slot18[484];            /* stack group (double): %t329.3, %t419.4, %t422.4, %t423.4 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 484);
    double slot19[1];            /* stack group (unsigned char): %t418.4 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 1);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_106);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_107);
bb0: ;
    mrt_op(&v_slot2 /*u0.1*/, MRT_OP_ZEROS, 2, &v_slot0 /*n.1*/, &v_slot0 /*n.1*/);
    const mrt_imm imm_110 = mrt_numv(1.0);
    const mrt_imm imm_111 = mrt_numv(2.0);
    mrt_put(&v_slot3 /*%t113.1*/, (slot0[0] - 1.0));
    mrt_put(&v_slot4 /*%t114.1*/, mrt_range_count(2.0, 1.0, slot3[0]));
    const mrt_imm imm_115 = mrt_numv(0.0);
    mrt_op(&v_slot6 /*u1.2*/, MRT_OP_COPY, 1, &v_slot2 /*u0.1*/);
    mrt_put(&v_slot7 /*%t144.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot5 /*u1.3*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot7 /*%t172.3*/, (slot7[0] + 1.0));
    mrt_put(&v_slot8 /*%t173.3*/, (double)(slot7[0] <= slot4[0]));
    if (slot8[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot9 /*i.3*/, mrt_loop_index(2.0, 1.0, slot7[0]));
    mrt_put(&v_slot12 /*%t385.4*/, 0.0);
    goto bb5;
bb4: ;
    const mrt_imm imm_175 = mrt_numv(0.25);
    mrt_put(&v_slot1 /*%t178.1*/, mrt_range_count(1.0, 1.0, slot1[0]));
    mrt_op(&v_slot5 /*u1.3*/, MRT_OP_COPY, 1, &v_slot6 /*u1.2*/);
    mrt_put(&v_slot7 /*%t245.2*/, 0.0);
    goto bb8;
bb5: ;
    mrt_put(&v_slot12 /*%t405.5*/, (slot12[0] + 1.0));
    mrt_put(&v_slot14 /*%t406.4*/, (double)(slot12[0] <= slot4[0]));
    if (slot14[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    mrt_put(&v_slot15 /*j.4*/, mrt_loop_index(2.0, 1.0, slot12[0]));
    const mrt_imm imm_408 = mrt_numv(3.141592653589793);
    mrt_put(&v_slot16 /*%t410.4*/, (slot9[0] - 1.0));
    mrt_put(&v_slot17 /*%t411.4*/, (3.141592653589793 * slot16[0]));
    mrt_put(&v_slot17 /*%t414.4*/, mrt_rdiv(slot17[0], slot3[0]));
    mrt_put(&v_slot17 /*%t415.4*/, sin(slot17[0]));
    mrt_put(&v_slot19 /*%t418.4*/, (slot15[0] - 1.0));
    mrt_put(&v_slot18 /*%t419.4*/, (3.141592653589793 * slot19[0]));
    mrt_put(&v_slot18 /*%t422.4*/, mrt_rdiv(slot18[0], slot3[0]));
    mrt_put(&v_slot18 /*%t423.4*/, sin(slot18[0]));
    mrt_put(&v_slot17 /*%t424.4*/, (slot17[0] * slot18[0]));
    if (!mrt_elem_set(&v_slot6 /*u1.6*/, 2, slot9[0], slot15[0], 0.0, slot17[0]))
        mrt_op(&v_slot6 /*u1.6*/, MRT_OP_SUBSASGN, 4, &v_slot6 /*u1.5*/, &v_slot17 /*%t424.4*/, &v_slot9 /*i.3*/, &v_slot15 /*j.4*/);
    goto bb5;
bb7: ;
    goto bb2;
bb8: ;
    mrt_put(&v_slot7 /*%t309.3*/, (slot7[0] + 1.0));
    mrt_put(&v_slot8 /*%t310.3*/, (double)(slot7[0] <= slot1[0]));
    if (slot8[0] != 0.0) goto bb9; else goto bb10;
bb9: ;
    mrt_put(&v_slot9 /*%t316.3*/, (slot0[0] - 2.0));
    mrt_op(&v_slot9 /*%t317.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_110), &v_slot9 /*%t316.3*/);
    mrt_op(&v_slot11 /*%t321.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_111), &v_slot3 /*%t113.1*/);
    mrt_op(&v_slot13 /*%t322.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*u1.3*/, &v_slot9 /*%t317.3*/, &v_slot11 /*%t321.3*/);
    const mrt_imm imm_323 = mrt_numv(3.0);
    mrt_op(&v_slot16 /*%t324.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_323), &v_slot0 /*n.1*/);
    mrt_op(&v_slot18 /*%t329.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*u1.3*/, &v_slot16 /*%t324.3*/, &v_slot11 /*%t321.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot13 /*%t330.3*/;
      const mrt_val *r = &v_slot18 /*%t329.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot10 /*%t339.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*u1.3*/, &v_slot11 /*%t321.3*/, &v_slot9 /*%t317.3*/);
    mrt_op(&v_slot10 /*%t340.3*/, MRT_OP_ADD, 2, &v_slot13 /*%t330.3*/, &v_slot10 /*%t339.3*/);
    mrt_op(&v_slot13 /*%t347.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*u1.3*/, &v_slot11 /*%t321.3*/, &v_slot16 /*%t324.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot10 /*%t348.3*/;
      const mrt_val *r = &v_slot13 /*%t347.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    const mrt_imm imm_349 = mrt_numv(4.0);
    mrt_op(&v_slot13 /*%t358.3*/, MRT_OP_SUBSREF, 3, &v_slot5 /*u1.3*/, &v_slot11 /*%t321.3*/, &v_slot11 /*%t321.3*/);
    mrt_op(&v_slot13 /*%t359.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_349), &v_slot13 /*%t358.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot10 /*%t360.3*/;
      const mrt_val *r = &v_slot13 /*%t359.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot13 /*lap.4*/, MRT_OP_SUBSASGN, 4, &v_slot2 /*u0.1*/, &v_slot10 /*%t360.3*/, &v_slot11 /*%t321.3*/, &v_slot11 /*%t321.3*/);
    mrt_op(&v_slot10 /*%t371.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_111), &v_slot5 /*u1.3*/);
    mrt_op(&v_slot6 /*%t372.3*/, MRT_OP_SUB, 2, &v_slot10 /*%t371.3*/, &v_slot6 /*u0.3*/);
    mrt_op(&v_slot10 /*%t373.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_175), &v_slot13 /*lap.4*/);
    mrt_op(&v_slot10 /*u2.3*/, MRT_OP_ADD, 2, &v_slot6 /*%t372.3*/, &v_slot10 /*%t373.3*/);
    mrt_op(&v_slot6 /*u0.3*/, MRT_OP_COPY, 1, &v_slot5 /*u1.3*/);
    mrt_op(&v_slot5 /*u1.3*/, MRT_OP_COPY, 1, &v_slot10 /*u2.3*/);
    goto bb8;
bb10: ;
    goto bb1;
}

int main(void)
{
    f_fiff_driver();
    return 0;
}
