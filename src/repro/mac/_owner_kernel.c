/* Compiled per-RB owner-selection kernels.
 *
 * Built on demand by repro/mac/_ckernel.py with the system C compiler
 * (no third-party build deps) and called through ctypes.  The numpy
 * references (argmax_allocation / reselect_users) remain the
 * always-available fall-through; these loops exist because at
 * simulation grid sizes (tens of users, ~100 RBs) numpy's per-call
 * dispatch dominates and a fused loop is several times faster.
 *
 * Byte-identity contract: every floating-point operation below is the
 * same IEEE-754 double operation, applied per element, as the numpy
 * references (argmax_allocation / reselect_users).  No -ffast-math,
 * no reassociation, plain compares.  Metrics are assumed non-NaN
 * (every shipped scheduler guarantees it).
 *
 * Loops run user-outer / RB-inner so the (users x rbs) C-order metric
 * matrix streams row-major; per-RB running state lives in small
 * stack/heap scratch vectors.  Winner updates use strict compares
 * (earlier user index wins exact ties), which selects exactly the user
 * numpy's first-index argmax selects.
 */

#include <math.h>
#include <stdint.h>

#define MAX_STACK_RBS 512

/* Per-RB argmax over active users; -1 where the best metric is not
 * finite (matches argmax_allocation's isfinite guard, including its
 * quirk that a +inf winner yields -1). */
void repro_plain_owner(const double *metric, const uint8_t *active,
                       int64_t num_ues, int64_t num_rbs, int64_t *owner)
{
    double best_stack[MAX_STACK_RBS];
    double *best = best_stack;
    if (num_rbs > MAX_STACK_RBS)
        return; /* dispatcher guards; unreachable */
    for (int64_t b = 0; b < num_rbs; b++) {
        best[b] = -INFINITY;
        owner[b] = 0;
    }
    for (int64_t u = 0; u < num_ues; u++) {
        if (!active[u])
            continue;
        const double *row = metric + u * num_rbs;
        for (int64_t b = 0; b < num_rbs; b++) {
            double m = row[b];
            if (m > best[b]) {
                best[b] = m;
                owner[b] = u;
            }
        }
    }
    for (int64_t b = 0; b < num_rbs; b++) {
        if (!isfinite(best[b]))
            owner[b] = -1;
    }
}

/* OutRAN Algorithm 1: epsilon-relaxed candidates, then lowest head
 * MLFQ level, then best metric (first index on exact metric ties).
 * The lexicographic scan below selects exactly the user that
 * reselect_users' candidate-mask / level-min / metric-argmax pipeline
 * selects, with the same thresholds:
 *   thresh = ((m_max >= 0) ? m_max * (1 - eps) : m_max) - |m_max|*1e-12
 */
void repro_epsilon_owner(const double *metric, const uint8_t *active,
                         const int64_t *levels, double epsilon,
                         int64_t num_ues, int64_t num_rbs, int64_t *owner)
{
    double thresh[MAX_STACK_RBS];
    double best_m[MAX_STACK_RBS];
    int64_t best_lvl[MAX_STACK_RBS];
    double keep = 1.0 - epsilon;
    if (num_rbs > MAX_STACK_RBS)
        return; /* dispatcher guards; unreachable */

    for (int64_t b = 0; b < num_rbs; b++)
        thresh[b] = -INFINITY; /* running m_max during pass 1 */
    for (int64_t u = 0; u < num_ues; u++) {
        if (!active[u])
            continue;
        const double *row = metric + u * num_rbs;
        for (int64_t b = 0; b < num_rbs; b++) {
            double m = row[b];
            if (m > thresh[b])
                thresh[b] = m;
        }
    }
    for (int64_t b = 0; b < num_rbs; b++) {
        double m_max = thresh[b];
        double cutoff = m_max >= 0.0 ? m_max * keep : m_max;
        thresh[b] = cutoff - fabs(m_max) * 1e-12;
        best_lvl[b] = INT64_MAX;
        best_m[b] = 0.0;
        owner[b] = -1;
    }

    for (int64_t u = 0; u < num_ues; u++) {
        if (!active[u])
            continue;
        const double *row = metric + u * num_rbs;
        int64_t lvl = levels[u];
        for (int64_t b = 0; b < num_rbs; b++) {
            double m = row[b];
            if (!(m >= thresh[b]) || !isfinite(m))
                continue;
            if (lvl < best_lvl[b] || (lvl == best_lvl[b] && m > best_m[b])) {
                best_lvl[b] = lvl;
                best_m[b] = m;
                owner[b] = u;
            }
        }
    }
}
