/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_clos_driver(void);
static void f_closure(const mrt_val *arg_10, const mrt_val *arg_11, mrt_val *out_0);

/* ---- function clos_driver ---- */
static void f_clos_driver(void)
{
    mrt_enter();
    double slot0[256];            /* stack group (double): %t11.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 256);
    double slot1[256];            /* stack group (unsigned char): g.1, r.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 256);
    double slot2[256];            /* stack group (unsigned char): %t15.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 256);
    double slot3[1];            /* stack group (int): %t19.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[256];            /* stack group (unsigned char): %t14.1 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 256);
    double slot5[16];            /* stack group (int): %t18.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 16);

bb0: ;
    const mrt_imm imm_10 = mrt_numv(16.0);
    mrt_op(&v_slot0 /*%t11.1*/, MRT_OP_RAND, 2, mrt_wrap(imm_10), mrt_wrap(imm_10));
    const mrt_imm imm_12 = mrt_numv(0.95);
    mrt_op(&v_slot1 /*g.1*/, MRT_OP_GT, 2, &v_slot0 /*%t11.1*/, mrt_wrap(imm_12));
    mrt_op(&v_slot4 /*%t14.1*/, MRT_OP_EYE, 2, mrt_wrap(imm_10), mrt_wrap(imm_10));
    mrt_op(&v_slot2 /*%t15.1*/, MRT_OP_ADD, 2, &v_slot1 /*g.1*/, &v_slot4 /*%t14.1*/);
    f_closure(&v_slot2 /*%t15.1*/, mrt_wrap(imm_10), &v_slot1 /*r.1*/);
    const mrt_imm imm_17 = mrt_strv("reachable pairs = %d\\n");
    mrt_op(&v_slot5 /*%t18.1*/, MRT_OP_SUM, 1, &v_slot1 /*r.1*/);
    mrt_op(&v_slot3 /*%t19.1*/, MRT_OP_SUM, 1, &v_slot5 /*%t18.1*/);
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_17), &v_slot3 /*%t19.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function closure ---- */
static void f_closure(const mrt_val *arg_10, const mrt_val *arg_11, mrt_val *out_0)
{
    mrt_enter();
    double slot0[256];            /* stack group (unsigned char): g.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 256);
    double slot1[256];            /* stack group (unsigned char): r.1, r.2, r.3 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 256);
    double slot2[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[1];            /* stack group (double): k.2, k.3 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 1);
    double slot4[1];            /* stack group (unsigned char): %t27.3, %t28.3 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 1);
    double slot5[256];            /* stack group (double): %t29.3 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 256);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_10);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_11);
bb0: ;
    const mrt_imm imm_12 = mrt_numv(0.0);
    mrt_op(&v_slot1 /*r.1*/, MRT_OP_GT, 2, &v_slot0 /*g.1*/, mrt_wrap(imm_12));
    const mrt_imm imm_14 = mrt_numv(1.0);
    mrt_put(&v_slot3 /*k.2*/, 1.0);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot1 /*r.2*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot4 /*%t27.3*/, (double)(slot3[0] < slot2[0]));
    mrt_put(&v_slot4 /*%t28.3*/, (double)(slot4[0] != 0.0));
    if (slot4[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_op(&v_slot5 /*%t29.3*/, MRT_OP_MTIMES, 2, &v_slot1 /*r.2*/, &v_slot1 /*r.2*/);
    mrt_op(&v_slot1 /*r.3*/, MRT_OP_GT, 2, &v_slot5 /*%t29.3*/, mrt_wrap(imm_12));
    const mrt_imm imm_32 = mrt_numv(2.0);
    mrt_put(&v_slot3 /*k.3*/, (slot3[0] * 2.0));
    goto bb2;
bb4: ;
    goto bb1;
}

int main(void)
{
    f_clos_driver();
    return 0;
}
