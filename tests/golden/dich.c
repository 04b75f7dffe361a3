/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_dich_driver(void);
static void f_dirich(const mrt_val *arg_73, const mrt_val *arg_74, mrt_val *out_0);

/* ---- function dich_driver ---- */
static void f_dich_driver(void)
{
    mrt_enter();
    double slot0[256];            /* stack group (double): u.1, %t27.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 256);
    double slot1[16];            /* stack group (double): %t24.1, %t26.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 16);

bb0: ;
    const mrt_imm imm_14 = mrt_numv(16.0);
    const mrt_imm imm_15 = mrt_numv(20.0);
    f_dirich(mrt_wrap(imm_14), mrt_wrap(imm_15), &v_slot0 /*u.1*/);
    const mrt_imm imm_17 = mrt_strv("u(center) = %.8f\\n");
    const mrt_imm imm_19 = mrt_numv(8.0);
    mrt_elem_get(&v_slot1 /*%t24.1*/, &v_slot0 /*u.1*/, 2, 8.0, 8.0, 0.0);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_17), &v_slot1 /*%t24.1*/);
    const mrt_imm imm_25 = mrt_strv("checksum  = %.8f\\n");
    mrt_op(&v_slot1 /*%t26.1*/, MRT_OP_SUM, 1, &v_slot0 /*u.1*/);
    mrt_op(&v_slot0 /*%t27.1*/, MRT_OP_SUM, 1, &v_slot1 /*%t26.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_25), &v_slot0 /*%t27.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function dirich ---- */
static void f_dirich(const mrt_val *arg_73, const mrt_val *arg_74, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[1];            /* stack group (unsigned char): iters.1, %t110.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 1);
    double slot2[256];            /* stack group (unsigned char): u.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 256);
    double slot3[256];            /* stack group (double): u.2, u.3, v.4, u.5 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 256);
    double slot4[16];            /* stack group (double): top.1, top.2, top.3 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 16);
    double slot5[1];            /* stack group (unsigned char): %t80.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[1];            /* stack group (double): %t162.2, %t212.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 1);
    double slot7[1];            /* stack group (unsigned char): %t213.3 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 1);
    double slot8[14];            /* stack group (unsigned char): %t219.3, %t220.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 14);
    double slot9[196];            /* stack group (double): %t93.2, %t104.3, %t242.3, %t243.3, %t251.3, %t252.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 196);
    double slot10[1];            /* stack group (unsigned char): %t105.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 1);
    double slot11[14];            /* stack group (unsigned char): %t223.3, %t224.3, j.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 14);
    double slot12[196];            /* stack group (double): %t225.3, %t233.3, %t250.3, %t269.3, %t272.3, %t273.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 196);
    double slot13[1];            /* stack group (unsigned char): %t268.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 1);
    double slot14[14];            /* stack group (unsigned char): %t227.3, %t271.3 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 14);
    double slot15[196];            /* stack group (double): %t232.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 196);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_73);
    mrt_op(&v_slot1, MRT_OP_COPY, 1, arg_74);
bb0: ;
    mrt_op(&v_slot2 /*u.1*/, MRT_OP_ZEROS, 2, &v_slot0 /*n.1*/, &v_slot0 /*n.1*/);
    const mrt_imm imm_76 = mrt_numv(1.0);
    mrt_op(&v_slot4 /*top.1*/, MRT_OP_ZEROS, 2, mrt_wrap(imm_76), &v_slot0 /*n.1*/);
    mrt_put(&v_slot5 /*%t80.1*/, mrt_range_count(1.0, 1.0, slot0[0]));
    const mrt_imm imm_81 = mrt_numv(0.0);
    mrt_put(&v_slot9 /*%t93.2*/, 0.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot3 /*u.3*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot9 /*%t104.3*/, (slot9[0] + 1.0));
    mrt_put(&v_slot10 /*%t105.3*/, (double)(slot9[0] <= slot5[0]));
    if (slot10[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_put(&v_slot11 /*j.3*/, mrt_loop_index(1.0, 1.0, slot9[0]));
    const mrt_imm imm_266 = mrt_numv(3.141592653589793);
    mrt_put(&v_slot13 /*%t268.3*/, (slot11[0] - 1.0));
    mrt_put(&v_slot12 /*%t269.3*/, (3.141592653589793 * slot13[0]));
    mrt_put(&v_slot14 /*%t271.3*/, (slot0[0] - 1.0));
    mrt_put(&v_slot12 /*%t272.3*/, mrt_rdiv(slot12[0], slot14[0]));
    mrt_put(&v_slot12 /*%t273.3*/, sin(slot12[0]));
    if (!mrt_elem_set(&v_slot4 /*top.3*/, 1, slot11[0], 0.0, 0.0, slot12[0]))
        mrt_op(&v_slot4 /*top.3*/, MRT_OP_SUBSASGN, 3, &v_slot4 /*top.2*/, &v_slot12 /*%t273.3*/, &v_slot11 /*j.3*/);
    goto bb2;
bb4: ;
    mrt_op(&v_slot3 /*u.2*/, MRT_OP_SUBSASGN, 4, &v_slot2 /*u.1*/, &v_slot4 /*top.2*/, mrt_wrap(imm_76), MRT_COLON);
    mrt_put(&v_slot1 /*%t110.1*/, mrt_range_count(1.0, 1.0, slot1[0]));
    mrt_put(&v_slot6 /*%t162.2*/, 0.0);
    goto bb5;
bb5: ;
    mrt_put(&v_slot6 /*%t212.3*/, (slot6[0] + 1.0));
    mrt_put(&v_slot7 /*%t213.3*/, (double)(slot6[0] <= slot1[0]));
    if (slot7[0] != 0.0) goto bb6; else goto bb7;
bb6: ;
    const mrt_imm imm_216 = mrt_numv(0.25);
    const mrt_imm imm_218 = mrt_numv(2.0);
    mrt_put(&v_slot8 /*%t219.3*/, (slot0[0] - 2.0));
    mrt_op(&v_slot8 /*%t220.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_76), &v_slot8 /*%t219.3*/);
    mrt_put(&v_slot11 /*%t223.3*/, (slot0[0] - 1.0));
    mrt_op(&v_slot11 /*%t224.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_218), &v_slot11 /*%t223.3*/);
    mrt_op(&v_slot12 /*%t225.3*/, MRT_OP_SUBSREF, 3, &v_slot3 /*u.3*/, &v_slot8 /*%t220.3*/, &v_slot11 /*%t224.3*/);
    const mrt_imm imm_226 = mrt_numv(3.0);
    mrt_op(&v_slot14 /*%t227.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_226), &v_slot0 /*n.1*/);
    mrt_op(&v_slot15 /*%t232.3*/, MRT_OP_SUBSREF, 3, &v_slot3 /*u.3*/, &v_slot14 /*%t227.3*/, &v_slot11 /*%t224.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot12 /*%t233.3*/;
      const mrt_val *r = &v_slot15 /*%t232.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot9 /*%t242.3*/, MRT_OP_SUBSREF, 3, &v_slot3 /*u.3*/, &v_slot11 /*%t224.3*/, &v_slot8 /*%t220.3*/);
    mrt_op(&v_slot9 /*%t243.3*/, MRT_OP_ADD, 2, &v_slot12 /*%t233.3*/, &v_slot9 /*%t242.3*/);
    mrt_op(&v_slot12 /*%t250.3*/, MRT_OP_SUBSREF, 3, &v_slot3 /*u.3*/, &v_slot11 /*%t224.3*/, &v_slot14 /*%t227.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot9 /*%t251.3*/;
      const mrt_val *r = &v_slot12 /*%t250.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot9 /*%t252.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_216), &v_slot9 /*%t251.3*/);
    mrt_op(&v_slot3 /*v.4*/, MRT_OP_SUBSASGN, 4, &v_slot3 /*u.3*/, &v_slot9 /*%t252.3*/, &v_slot11 /*%t224.3*/, &v_slot11 /*%t224.3*/);
    mrt_op(&v_slot3 /*u.5*/, MRT_OP_SUBSASGN, 4, &v_slot3 /*v.4*/, &v_slot4 /*top.2*/, mrt_wrap(imm_76), MRT_COLON);
    goto bb5;
bb7: ;
    goto bb1;
}

int main(void)
{
    f_dich_driver();
    return 0;
}
