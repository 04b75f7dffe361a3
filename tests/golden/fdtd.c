/* Generated by matc (GCTD storage plan applied). */
#include "mrt.h"

static void f_fdtd_driver(void);
static void f_fdtd(const mrt_val *arg_423, const mrt_val *arg_424, mrt_val *out_0);

/* ---- function fdtd_driver ---- */
static void f_fdtd_driver(void)
{
    mrt_enter();
    double slot0[1];            /* stack group (double): e.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);

bb0: ;
    const mrt_imm imm_4 = mrt_numv(8.0);
    const mrt_imm imm_5 = mrt_numv(4.0);
    f_fdtd(mrt_wrap(imm_4), mrt_wrap(imm_5), &v_slot0 /*e.1*/);
    const mrt_imm imm_7 = mrt_strv("field energy = %.8f\\n");
    mrt_op(NULL, MRT_OP_FPRINTF, 2, mrt_wrap(imm_7), &v_slot0 /*e.1*/);
    goto bb1;
bb1: ;
    mrt_leave();
    return;
}

/* ---- function fdtd ---- */
static void f_fdtd(const mrt_val *arg_423, const mrt_val *arg_424, mrt_val *out_0)
{
    mrt_enter();
    double slot0[1];            /* stack group (unsigned char): n.1 */
    mrt_val v_slot0 = {0};
    mrt_bind(&v_slot0, slot0, 1);
    double slot1[512];            /* stack group (double): %t1223.1, %t1226.1, %t1229.1, %t1232.1, %t1235.1, %t1238.1, %t1240.1 */
    mrt_val v_slot1 = {0};
    mrt_bind(&v_slot1, slot1, 512);
    double slot2[1];            /* stack group (unsigned char): steps.1, %t439.1 */
    mrt_val v_slot2 = {0};
    mrt_bind(&v_slot2, slot2, 1);
    double slot3[512];            /* stack group (double): %t1225.1, %t1228.1, %t1231.1, %t1234.1, %t1237.1, %t1239.1, energy.1 */
    mrt_val v_slot3 = {0};
    mrt_bind(&v_slot3, slot3, 512);
    double slot4[512];            /* stack group (double): ex.1, ex.2, ex.3 */
    mrt_val v_slot4 = {0};
    mrt_bind(&v_slot4, slot4, 512);
    double slot5[1];            /* stack group (unsigned char): %t433.1, m.1 */
    mrt_val v_slot5 = {0};
    mrt_bind(&v_slot5, slot5, 1);
    double slot6[512];            /* stack group (double): ey.2, ey.3 */
    mrt_val v_slot6 = {0};
    mrt_bind(&v_slot6, slot6, 512);
    double slot7[512];            /* stack group (double): ez.2, ez.3, ez.4 */
    mrt_val v_slot7 = {0};
    mrt_bind(&v_slot7, slot7, 512);
    double slot8[512];            /* stack group (double): hx.2, hx.3 */
    mrt_val v_slot8 = {0};
    mrt_bind(&v_slot8, slot8, 512);
    double slot9[512];            /* stack group (double): hy.2, hy.3 */
    mrt_val v_slot9 = {0};
    mrt_bind(&v_slot9, slot9, 512);
    double slot10[512];            /* stack group (double): hz.2, hz.3 */
    mrt_val v_slot10 = {0};
    mrt_bind(&v_slot10, slot10, 512);
    double slot11[1];            /* stack group (double): %t833.2, %t1220.3 */
    mrt_val v_slot11 = {0};
    mrt_bind(&v_slot11, slot11, 1);
    double slot12[1];            /* stack group (unsigned char): %t1221.3 */
    mrt_val v_slot12 = {0};
    mrt_bind(&v_slot12, slot12, 1);
    double slot13[8];            /* stack group (unsigned char): %t1244.3 */
    mrt_val v_slot13 = {0};
    mrt_bind(&v_slot13, slot13, 8);
    double slot14[343];            /* stack group (double): %t1452.3, %t1497.3, %t1515.3, %t1560.3, %t1578.3, %t1623.3 */
    mrt_val v_slot14 = {0};
    mrt_bind(&v_slot14, slot14, 343);
    double slot15[7];            /* stack group (unsigned char): %t1247.3, %t1248.3 */
    mrt_val v_slot15 = {0};
    mrt_bind(&v_slot15, slot15, 7);
    double slot16[392];            /* stack group (double): %t1253.3, %t1298.3, %t1320.3, %t1365.3, %t1387.3, %t1432.3, %t1461.3, %t1473.3, %t1483.3, %t1495.3, %t1496.3, %t1524.3, %t1536.3, %t1546.3, %t1558.3, %t1559.3, %t1587.3, %t1599.3, %t1609.3, %t1621.3, %t1622.3 */
    mrt_val v_slot16 = {0};
    mrt_bind(&v_slot16, slot16, 392);
    double slot17[7];            /* stack group (unsigned char): %t1257.3 */
    mrt_val v_slot17 = {0};
    mrt_bind(&v_slot17, slot17, 7);
    double slot18[392];            /* stack group (double): %t1262.3, %t1274.3, %t1284.3, %t1296.3, %t1297.3, %t1329.3, %t1341.3, %t1351.3, %t1363.3, %t1364.3, %t1396.3, %t1408.3, %t1418.3, %t1430.3, %t1431.3, %t1472.3, %t1608.3 */
    mrt_val v_slot18 = {0};
    mrt_bind(&v_slot18, slot18, 392);
    double slot19[392];            /* stack group (double): %t1273.3, %t1283.3, %t1295.3, %t1340.3, %t1350.3, %t1362.3, %t1407.3, %t1417.3, %t1429.3, %t1482.3, %t1494.3 */
    mrt_val v_slot19 = {0};
    mrt_bind(&v_slot19, slot19, 392);
    double slot20[343];            /* stack group (double): %t1535.3 */
    mrt_val v_slot20 = {0};
    mrt_bind(&v_slot20, slot20, 343);
    double slot21[343];            /* stack group (double): %t1545.3 */
    mrt_val v_slot21 = {0};
    mrt_bind(&v_slot21, slot21, 343);

    mrt_op(&v_slot0, MRT_OP_COPY, 1, arg_423);
    mrt_op(&v_slot2, MRT_OP_COPY, 1, arg_424);
bb0: ;
    mrt_op(&v_slot4 /*ex.1*/, MRT_OP_ZEROS, 3, &v_slot0 /*n.1*/, &v_slot0 /*n.1*/, &v_slot0 /*n.1*/);
    const mrt_imm imm_431 = mrt_numv(0.5);
    const mrt_imm imm_432 = mrt_numv(2.0);
    mrt_put(&v_slot5 /*%t433.1*/, mrt_rdiv(slot0[0], 2.0));
    mrt_put(&v_slot5 /*m.1*/, mrt_round(slot5[0]));
    const mrt_imm imm_435 = mrt_numv(1.0);
    mrt_op(&v_slot7 /*ez.2*/, MRT_OP_SUBSASGN, 5, &v_slot4 /*ex.1*/, mrt_wrap(imm_435), &v_slot5 /*m.1*/, &v_slot5 /*m.1*/, &v_slot5 /*m.1*/);
    mrt_put(&v_slot2 /*%t439.1*/, mrt_range_count(1.0, 1.0, slot2[0]));
    const mrt_imm imm_440 = mrt_numv(0.0);
    mrt_op(&v_slot6 /*ey.2*/, MRT_OP_COPY, 1, &v_slot4 /*ex.1*/);
    mrt_put(&v_slot11 /*%t833.2*/, 0.0);
    mrt_op(&v_slot10 /*hz.2*/, MRT_OP_COPY, 1, &v_slot4 /*ex.1*/);
    mrt_op(&v_slot9 /*hy.2*/, MRT_OP_COPY, 1, &v_slot4 /*ex.1*/);
    mrt_op(&v_slot8 /*hx.2*/, MRT_OP_COPY, 1, &v_slot4 /*ex.1*/);
    goto bb2;
bb1: ;
    mrt_op(out_0, MRT_OP_COPY, 1, &v_slot3 /*energy.1*/);
    mrt_leave();
    return;
bb2: ;
    mrt_put(&v_slot11 /*%t1220.3*/, (slot11[0] + 1.0));
    mrt_put(&v_slot12 /*%t1221.3*/, (double)(slot11[0] <= slot2[0]));
    if (slot12[0] != 0.0) goto bb3; else goto bb4;
bb3: ;
    mrt_op(&v_slot13 /*%t1244.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_435), &v_slot0 /*n.1*/);
    mrt_put(&v_slot15 /*%t1247.3*/, (slot0[0] - 1.0));
    mrt_op(&v_slot15 /*%t1248.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_435), &v_slot15 /*%t1247.3*/);
    mrt_op(&v_slot16 /*%t1253.3*/, MRT_OP_SUBSREF, 4, &v_slot8 /*hx.2*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot17 /*%t1257.3*/, MRT_OP_RANGE, 2, mrt_wrap(imm_432), &v_slot0 /*n.1*/);
    mrt_op(&v_slot18 /*%t1262.3*/, MRT_OP_SUBSREF, 4, &v_slot7 /*ez.3*/, &v_slot13 /*%t1244.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot19 /*%t1273.3*/, MRT_OP_SUBSREF, 4, &v_slot7 /*ez.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1274.3*/;
      const mrt_val *r = &v_slot19 /*%t1273.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1283.3*/, MRT_OP_SUBSREF, 4, &v_slot6 /*ey.2*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1284.3*/;
      const mrt_val *r = &v_slot19 /*%t1283.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1295.3*/, MRT_OP_SUBSREF, 4, &v_slot6 /*ey.2*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1296.3*/;
      const mrt_val *r = &v_slot19 /*%t1295.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot18 /*%t1297.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot18 /*%t1296.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1298.3*/;
      const mrt_val *r = &v_slot18 /*%t1297.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot8 /*hx.3*/, MRT_OP_SUBSASGN, 5, &v_slot8 /*hx.2*/, &v_slot16 /*%t1298.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot16 /*%t1320.3*/, MRT_OP_SUBSREF, 4, &v_slot9 /*hy.2*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot18 /*%t1329.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*ex.2*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot19 /*%t1340.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*ex.2*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1341.3*/;
      const mrt_val *r = &v_slot19 /*%t1340.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1350.3*/, MRT_OP_SUBSREF, 4, &v_slot7 /*ez.3*/, &v_slot17 /*%t1257.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1351.3*/;
      const mrt_val *r = &v_slot19 /*%t1350.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1362.3*/, MRT_OP_SUBSREF, 4, &v_slot7 /*ez.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1363.3*/;
      const mrt_val *r = &v_slot19 /*%t1362.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot18 /*%t1364.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot18 /*%t1363.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1365.3*/;
      const mrt_val *r = &v_slot18 /*%t1364.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot9 /*hy.3*/, MRT_OP_SUBSASGN, 5, &v_slot9 /*hy.2*/, &v_slot16 /*%t1365.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot16 /*%t1387.3*/, MRT_OP_SUBSREF, 4, &v_slot10 /*hz.2*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/);
    mrt_op(&v_slot18 /*%t1396.3*/, MRT_OP_SUBSREF, 4, &v_slot6 /*ey.2*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/);
    mrt_op(&v_slot19 /*%t1407.3*/, MRT_OP_SUBSREF, 4, &v_slot6 /*ey.2*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1408.3*/;
      const mrt_val *r = &v_slot19 /*%t1407.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1417.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*ex.2*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot13 /*%t1244.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1418.3*/;
      const mrt_val *r = &v_slot19 /*%t1417.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1429.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*ex.2*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot18 /*%t1430.3*/;
      const mrt_val *r = &v_slot19 /*%t1429.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot18 /*%t1431.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot18 /*%t1430.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1432.3*/;
      const mrt_val *r = &v_slot18 /*%t1431.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot10 /*hz.3*/, MRT_OP_SUBSASGN, 5, &v_slot10 /*hz.2*/, &v_slot16 /*%t1432.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/, &v_slot13 /*%t1244.3*/);
    mrt_op(&v_slot14 /*%t1452.3*/, MRT_OP_SUBSREF, 4, &v_slot4 /*ex.2*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot16 /*%t1461.3*/, MRT_OP_SUBSREF, 4, &v_slot10 /*hz.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot18 /*%t1472.3*/, MRT_OP_SUBSREF, 4, &v_slot10 /*hz.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1473.3*/;
      const mrt_val *r = &v_slot18 /*%t1472.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1482.3*/, MRT_OP_SUBSREF, 4, &v_slot9 /*hy.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1483.3*/;
      const mrt_val *r = &v_slot19 /*%t1482.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot19 /*%t1494.3*/, MRT_OP_SUBSREF, 4, &v_slot9 /*hy.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1495.3*/;
      const mrt_val *r = &v_slot19 /*%t1494.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot16 /*%t1496.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot16 /*%t1495.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot14 /*%t1497.3*/;
      const mrt_val *r = &v_slot16 /*%t1496.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot4 /*ex.3*/, MRT_OP_SUBSASGN, 5, &v_slot4 /*ex.2*/, &v_slot14 /*%t1497.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot14 /*%t1515.3*/, MRT_OP_SUBSREF, 4, &v_slot6 /*ey.2*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot16 /*%t1524.3*/, MRT_OP_SUBSREF, 4, &v_slot8 /*hx.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot20 /*%t1535.3*/, MRT_OP_SUBSREF, 4, &v_slot8 /*hx.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1536.3*/;
      const mrt_val *r = &v_slot20 /*%t1535.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot21 /*%t1545.3*/, MRT_OP_SUBSREF, 4, &v_slot10 /*hz.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1546.3*/;
      const mrt_val *r = &v_slot21 /*%t1545.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1558.3*/;
      const mrt_val *r = &v_slot18 /*%t1472.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot16 /*%t1559.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot16 /*%t1558.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot14 /*%t1560.3*/;
      const mrt_val *r = &v_slot16 /*%t1559.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot6 /*ey.3*/, MRT_OP_SUBSASGN, 5, &v_slot6 /*ey.2*/, &v_slot14 /*%t1560.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/, &v_slot17 /*%t1257.3*/);
    mrt_op(&v_slot14 /*%t1578.3*/, MRT_OP_SUBSREF, 4, &v_slot7 /*ez.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    mrt_op(&v_slot16 /*%t1587.3*/, MRT_OP_SUBSREF, 4, &v_slot9 /*hy.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1599.3*/;
      const mrt_val *r = &v_slot19 /*%t1494.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    mrt_op(&v_slot18 /*%t1608.3*/, MRT_OP_SUBSREF, 4, &v_slot8 /*hx.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    { /* in-place - (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1609.3*/;
      const mrt_val *r = &v_slot18 /*%t1608.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] - r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_SUB, 2, d, r);
      }
    }
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot16 /*%t1621.3*/;
      const mrt_val *r = &v_slot20 /*%t1535.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot16 /*%t1622.3*/, MRT_OP_MTIMES, 2, mrt_wrap(imm_431), &v_slot16 /*%t1621.3*/);
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot14 /*%t1623.3*/;
      const mrt_val *r = &v_slot16 /*%t1622.3*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot7 /*ez.4*/, MRT_OP_SUBSASGN, 5, &v_slot7 /*ez.3*/, &v_slot14 /*%t1623.3*/, &v_slot17 /*%t1257.3*/, &v_slot17 /*%t1257.3*/, &v_slot15 /*%t1248.3*/);
    goto bb2;
bb4: ;
    mrt_op(&v_slot1 /*%t1223.1*/, MRT_OP_POWER, 2, &v_slot4 /*ex.2*/, mrt_wrap(imm_432));
    mrt_op(&v_slot3 /*%t1225.1*/, MRT_OP_POWER, 2, &v_slot6 /*ey.2*/, mrt_wrap(imm_432));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot1 /*%t1226.1*/;
      const mrt_val *r = &v_slot3 /*%t1225.1*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot3 /*%t1228.1*/, MRT_OP_POWER, 2, &v_slot7 /*ez.3*/, mrt_wrap(imm_432));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot1 /*%t1229.1*/;
      const mrt_val *r = &v_slot3 /*%t1228.1*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot3 /*%t1231.1*/, MRT_OP_POWER, 2, &v_slot8 /*hx.2*/, mrt_wrap(imm_432));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot1 /*%t1232.1*/;
      const mrt_val *r = &v_slot3 /*%t1231.1*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot3 /*%t1234.1*/, MRT_OP_POWER, 2, &v_slot9 /*hy.2*/, mrt_wrap(imm_432));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot1 /*%t1235.1*/;
      const mrt_val *r = &v_slot3 /*%t1234.1*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot3 /*%t1237.1*/, MRT_OP_POWER, 2, &v_slot10 /*hz.2*/, mrt_wrap(imm_432));
    { /* in-place + (Figure 1) */
      mrt_val *d = &v_slot1 /*%t1238.1*/;
      const mrt_val *r = &v_slot3 /*%t1237.1*/;
      size_t i, n = MRT_NUMEL(*d);
      if (MRT_NUMEL(*r) == 1) { /* scalar operand */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[0]);
      } else if (r->d0 == d->d0 && r->d1 == d->d1 && r->d2 == d->d2) { /* identical shapes */
        for (i = 0; i < n; i++) d->re[i] = (d->re[i] + r->re[i]);
      } else { /* broadcasts or raises */
        mrt_op(d, MRT_OP_ADD, 2, d, r);
      }
    }
    mrt_op(&v_slot3 /*%t1239.1*/, MRT_OP_SUM, 1, &v_slot1 /*%t1238.1*/);
    mrt_op(&v_slot1 /*%t1240.1*/, MRT_OP_SUM, 1, &v_slot3 /*%t1239.1*/);
    mrt_op(&v_slot3 /*energy.1*/, MRT_OP_SUM, 1, &v_slot1 /*%t1240.1*/);
    goto bb1;
}

int main(void)
{
    f_fdtd_driver();
    return 0;
}
