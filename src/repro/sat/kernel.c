/*
 * Flat-arena CDCL SAT kernel: the production SAT solver of every engine.
 *
 * repro.sat.arena.ArenaSolver is a thin Python wrapper around this file,
 * compiled on first import by repro.sat.build (cffi, API mode).  The
 * search is MiniSat-style CDCL over DIMACS literals:
 *
 *  - Encoded literals: literal l is stored as (|l| << 1) | (l < 0), so
 *    the negation is enc ^ 1 and a literal's truth value is one load from
 *    values[] (1 true, -1 false, 0 unassigned).
 *  - Literal pool: every clause lives back to back in one int32 array.
 *    A clause is addressed by its offset (its cref) and occupies size + 2
 *    words: a packed header (size << 3) | (learnt << 1) | deleted, an
 *    activity slot (-1 for problem clauses), then the literals.
 *  - Watches: per encoded literal, (cref, blocker) pairs.  Binary clauses
 *    are watched as -1 - cref, so propagation resolves them from the
 *    blocker's value alone.  Deleted clauses only set the header bit;
 *    propagation drops their watchers lazily, and the pool is compacted
 *    (every cref remapped) once enough dead words accumulate, but only at
 *    decision level 0.
 *  - Activation layer: activation variables guard removable clause
 *    groups.  Guarded clauses are addressed through stable handles (the
 *    compaction remaps them); learnt clauses that mention an activation
 *    variable are indexed under it and purged when the group is
 *    released; released variables are recycled unless propagation fixed
 *    them at level 0, which retires them.
 *  - Assumption-trail reuse: a solve call keeps the decision levels of
 *    the assumption prefix it shares with the previous call.
 *  - Luby restarts, learnt-database reduction by a stable sort on
 *    (binary, activity), VSIDS ordered by (-activity, var) with saved
 *    phases.
 *
 * Every floating-point update is a plain IEEE double operation, so the
 * build must not use -ffast-math or contract multiply-adds.
 *
 * Out of memory: every exported function returns -1 and the kernel
 * refuses all further calls.  A literal that is 0 or outside
 * |l| <= MAX_VAR makes k_add_clause, k_add_guarded and k_solve return
 * BAD_LITERAL before they change anything.
 */

#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DELETED 1
#define LEARNT 2
#define SIZE_SHIFT 3
#define NO_REASON (-1)

#define MAX_VAR ((1 << 30) - 1) /* (var << 1) | 1 is an int32 */
#define BAD_LITERAL (-2)

#define L_TRUE 1
#define L_FALSE 0
#define L_UNDEF 2

typedef struct {
    int64_t decisions, propagations, conflicts, restarts;
    int64_t learnt_clauses, removed_clauses, solve_calls, max_decision_level;
    int64_t activation_vars_allocated, activation_vars_recycled;
    int64_t activation_vars_retired, guarded_clauses_added;
    int64_t guarded_clauses_freed, learnts_purged, assumption_levels_reused;
    int64_t watch_traversals, blocker_hits, literal_pool_bytes;
    int64_t arena_compactions;
} k_stats;

typedef struct {
    int32_t *data;
    int32_t size;
    int32_t cap;
} k_ivec;

typedef struct {
    int32_t cref;
    int32_t blocker;
} watch;

typedef struct {
    watch *data;
    int32_t size;
    int32_t cap;
} wvec;

typedef struct {
    /* Read by the Python wrapper. */
    k_stats stats;
    int32_t num_vars;
    int32_t num_problem;
    int32_t ok;
    int8_t *values;    /* by encoded literal */
    k_ivec core;       /* DIMACS literals of the last assumption core */
    k_ivec learnts;

    /* Parameters. */
    double var_decay, clause_decay, max_learnt_factor, learnt_growth;
    int64_t restart_base;

    /* Per-variable state (index 0 unused), capacity cap_vars + 1. */
    int32_t cap_vars;
    wvec *watches;     /* by encoded literal */
    int32_t *level;
    int32_t *reason;
    uint8_t *phase;    /* 1 = saved phase is negative */
    uint8_t *branchable;
    uint8_t *seen;
    uint8_t *is_act;
    uint8_t *assumed;  /* by encoded literal, set during analyze_final */
    double *activity;
    k_ivec *act_learnts;

    /* VSIDS order: indexed binary heap ordered by (hkey, var). */
    double *hkey;
    int32_t *heap;
    int32_t *heap_pos; /* -1 when not in the heap */
    int32_t heap_size;

    /* Clause arena. */
    k_ivec pool;
    int64_t dead_words;
    double *cla_act;
    int32_t cla_act_size, cla_act_cap;
    k_ivec cla_free;

    /* Trail: capacity cap_vars + 1, so pushes never reallocate. */
    k_ivec trail;
    k_ivec trail_lim;
    int32_t qhead;

    double var_inc, cla_inc, max_learnts;
    k_ivec assumptions; /* encoded */

    /* Activation layer. */
    int32_t num_acts;
    k_ivec act_free;
    k_ivec handle_cref; /* handle -> cref, -1 when free */
    k_ivec handle_free;

    /* Seeded random branching (splitmix64). */
    int rng_on;
    uint64_t rng_state;

    /* Scratch. */
    k_ivec learnt, to_clear, lits, sorted_buf;

    int broken;
    jmp_buf oom;
} kernel;

/* ------------------------------------------------------------------ */
/* Memory                                                              */
/* ------------------------------------------------------------------ */

static void *xrealloc(kernel *k, void *p, size_t bytes)
{
    void *q = realloc(p, bytes ? bytes : 1);
    if (!q)
        longjmp(k->oom, 1);
    return q;
}

static int32_t grown(kernel *k, int32_t cap)
{
    if (cap >= INT32_MAX / 2)
        longjmp(k->oom, 1);
    return cap ? cap * 2 : 8;
}

static void ivec_reserve(kernel *k, k_ivec *v, int32_t need)
{
    if (need <= v->cap)
        return;
    int32_t cap = v->cap;
    while (cap < need)
        cap = grown(k, cap);
    v->data = xrealloc(k, v->data, (size_t)cap * sizeof(int32_t));
    v->cap = cap;
}

static void ipush(kernel *k, k_ivec *v, int32_t x)
{
    if (v->size == v->cap)
        ivec_reserve(k, v, v->size + 1);
    v->data[v->size++] = x;
}

static void wpush(kernel *k, wvec *v, int32_t cref, int32_t blocker)
{
    if (v->size == v->cap) {
        int32_t cap = grown(k, v->cap);
        v->data = xrealloc(k, v->data, (size_t)cap * sizeof(watch));
        v->cap = cap;
    }
    v->data[v->size].cref = cref;
    v->data[v->size].blocker = blocker;
    v->size++;
}

static int32_t encode(int32_t lit) { return lit > 0 ? lit << 1 : ((-lit) << 1) | 1; }

static int32_t decode(int32_t enc) { return enc & 1 ? -(enc >> 1) : enc >> 1; }

/* ------------------------------------------------------------------ */
/* VSIDS heap                                                          */
/* ------------------------------------------------------------------ */

static int heap_lt(const kernel *k, int32_t a, int32_t b)
{
    double ka = k->hkey[a], kb = k->hkey[b];
    return ka < kb || (ka == kb && a < b);
}

static void heap_up(kernel *k, int32_t i)
{
    int32_t *heap = k->heap;
    int32_t var = heap[i];
    while (i > 0) {
        int32_t parent = (i - 1) >> 1;
        if (!heap_lt(k, var, heap[parent]))
            break;
        heap[i] = heap[parent];
        k->heap_pos[heap[i]] = i;
        i = parent;
    }
    heap[i] = var;
    k->heap_pos[var] = i;
}

static void heap_down(kernel *k, int32_t i)
{
    int32_t *heap = k->heap;
    int32_t var = heap[i];
    for (;;) {
        int32_t child = 2 * i + 1;
        if (child >= k->heap_size)
            break;
        if (child + 1 < k->heap_size && heap_lt(k, heap[child + 1], heap[child]))
            child++;
        if (!heap_lt(k, heap[child], var))
            break;
        heap[i] = heap[child];
        k->heap_pos[heap[i]] = i;
        i = child;
    }
    heap[i] = var;
    k->heap_pos[var] = i;
}

static void heap_insert(kernel *k, int32_t var)
{
    k->heap[k->heap_size] = var;
    k->heap_pos[var] = k->heap_size;
    heap_up(k, k->heap_size++);
}

static int32_t heap_pop(kernel *k)
{
    int32_t var = k->heap[0];
    int32_t last = k->heap[--k->heap_size];
    k->heap_pos[var] = -1;
    if (k->heap_size > 0) {
        k->heap[0] = last;
        k->heap_pos[last] = 0;
        heap_down(k, 0);
    }
    return var;
}

/* ------------------------------------------------------------------ */
/* Variables                                                           */
/* ------------------------------------------------------------------ */

static void grow_vars(kernel *k, int32_t need)
{
    int32_t old = k->cap_vars, cap = old > 8 ? old : 8;
    while (cap < need)
        cap = grown(k, cap);
    size_t n = (size_t)cap + 1, n2 = 2 * n;
    k->values = xrealloc(k, k->values, n2);
    k->watches = xrealloc(k, k->watches, n2 * sizeof(wvec));
    memset(k->watches + 2 * ((size_t)old + 1), 0, (n2 - 2 * ((size_t)old + 1)) * sizeof(wvec));
    k->assumed = xrealloc(k, k->assumed, n2);
    memset(k->assumed + 2 * ((size_t)old + 1), 0, n2 - 2 * ((size_t)old + 1));
    k->level = xrealloc(k, k->level, n * sizeof(int32_t));
    k->reason = xrealloc(k, k->reason, n * sizeof(int32_t));
    k->phase = xrealloc(k, k->phase, n);
    k->branchable = xrealloc(k, k->branchable, n);
    k->seen = xrealloc(k, k->seen, n);
    k->is_act = xrealloc(k, k->is_act, n);
    k->activity = xrealloc(k, k->activity, n * sizeof(double));
    k->hkey = xrealloc(k, k->hkey, n * sizeof(double));
    k->heap = xrealloc(k, k->heap, n * sizeof(int32_t));
    k->heap_pos = xrealloc(k, k->heap_pos, n * sizeof(int32_t));
    k->act_learnts = xrealloc(k, k->act_learnts, n * sizeof(k_ivec));
    memset(k->act_learnts + old + 1, 0, (n - (size_t)old - 1) * sizeof(k_ivec));
    ivec_reserve(k, &k->trail, cap + 1);
    k->cap_vars = cap;
}

static int32_t new_var(kernel *k)
{
    if (k->num_vars == k->cap_vars)
        grow_vars(k, k->num_vars + 1);
    int32_t var = ++k->num_vars;
    k->values[var << 1] = 0;
    k->values[(var << 1) | 1] = 0;
    k->level[var] = 0;
    k->reason[var] = NO_REASON;
    k->phase[var] = 1;
    k->branchable[var] = 1;
    k->seen[var] = 0;
    k->is_act[var] = 0;
    k->activity[var] = 0.0;
    k->hkey[var] = -0.0;
    heap_insert(k, var);
    return var;
}

static void ensure_var(kernel *k, int32_t var)
{
    if (var > k->cap_vars)
        grow_vars(k, var);
    while (k->num_vars < var)
        new_var(k);
}

static void bump_var(kernel *k, int32_t var)
{
    double *activity = k->activity;
    activity[var] += k->var_inc;
    if (activity[var] > 1e100) {
        for (int32_t v = 1; v <= k->num_vars; v++)
            activity[v] *= 1e-100;
        k->var_inc *= 1e-100;
        /* Every heap key is stale now: refresh them and re-heapify. */
        for (int32_t i = 0; i < k->heap_size; i++)
            k->hkey[k->heap[i]] = -activity[k->heap[i]];
        for (int32_t i = k->heap_size / 2 - 1; i >= 0; i--)
            heap_down(k, i);
    }
    /* Activation variables keep whatever key they had when they left the
       decision order for good. */
    if (k->heap_pos[var] >= 0 && k->branchable[var]) {
        k->hkey[var] = -activity[var];
        heap_up(k, k->heap_pos[var]);
    }
}

/* ------------------------------------------------------------------ */
/* Clause arena                                                        */
/* ------------------------------------------------------------------ */

static int32_t alloc_clause(kernel *k, const int32_t *lits, int32_t n, int learnt)
{
    k_ivec *pool = &k->pool;
    if (n >= (1 << 28) || pool->size > INT32_MAX - 2 - n)
        longjmp(k->oom, 1);
    ivec_reserve(k, pool, pool->size + n + 2);
    int32_t cref = pool->size;
    int32_t slot = -1;
    if (learnt) {
        if (k->cla_free.size) {
            slot = k->cla_free.data[--k->cla_free.size];
        } else {
            if (k->cla_act_size == k->cla_act_cap) {
                int32_t cap = grown(k, k->cla_act_cap);
                k->cla_act = xrealloc(k, k->cla_act, (size_t)cap * sizeof(double));
                k->cla_act_cap = cap;
            }
            slot = k->cla_act_size++;
        }
        k->cla_act[slot] = 0.0;
        pool->data[pool->size++] = (n << SIZE_SHIFT) | LEARNT;
    } else {
        pool->data[pool->size++] = n << SIZE_SHIFT;
        k->num_problem++;
    }
    pool->data[pool->size++] = slot;
    memcpy(pool->data + pool->size, lits, (size_t)n * sizeof(int32_t));
    pool->size += n;
    k->stats.literal_pool_bytes = (int64_t)pool->size * (int64_t)sizeof(int32_t);
    return cref;
}

/* Mark a clause deleted; returns 0 if it already was. */
static int delete_clause(kernel *k, int32_t cref)
{
    int32_t *pool = k->pool.data;
    int32_t header = pool[cref];
    if (header & DELETED)
        return 0;
    pool[cref] = header | DELETED;
    k->dead_words += (header >> SIZE_SHIFT) + 2;
    if (header & LEARNT)
        ipush(k, &k->cla_free, pool[cref + 1]);
    else
        k->num_problem--;
    return 1;
}

static void attach(kernel *k, int32_t cref)
{
    int32_t *pool = k->pool.data;
    int32_t a = pool[cref + 2], b = pool[cref + 3];
    int32_t tag = (pool[cref] >> SIZE_SHIFT) == 2 ? -1 - cref : cref;
    wpush(k, &k->watches[a], tag, b);
    wpush(k, &k->watches[b], tag, a);
}

/* New cref of a clause during compaction, -1 if it was deleted. */
static int32_t remapped(const int32_t *old, int32_t cref)
{
    return old[cref] & DELETED ? -1 : old[cref + 1];
}

static void filter_remap(k_ivec *v, const int32_t *old)
{
    int32_t write = 0;
    for (int32_t i = 0; i < v->size; i++) {
        int32_t mapped = remapped(old, v->data[i]);
        if (mapped >= 0)
            v->data[write++] = mapped;
    }
    v->size = write;
}

/* Rewrite the pool without dead clauses, remapping every ref.  Only at
   decision level 0: reasons of level-0 assignments may be remapped or
   dropped (analysis never reads them), and watch lists keep their order
   because every kept clause keeps its watched literals. */
static void compact(kernel *k)
{
    k_ivec fresh = {NULL, 0, 0};
    int32_t *old = k->pool.data;
    int32_t n = k->pool.size;
    ivec_reserve(k, &fresh, n - (int32_t)k->dead_words + 1);
    for (int32_t i = 0; i < n;) {
        int32_t header = old[i];
        int32_t next = i + 2 + (header >> SIZE_SHIFT);
        if (!(header & DELETED)) {
            int32_t cref = fresh.size;
            memcpy(fresh.data + cref, old + i, (size_t)(next - i) * sizeof(int32_t));
            fresh.size += next - i;
            old[i + 1] = cref; /* forwarding address, read by remapped() */
        }
        i = next;
    }

    for (int32_t enc = 2; enc <= 2 * k->num_vars + 1; enc++) {
        wvec *wl = &k->watches[enc];
        int32_t write = 0;
        for (int32_t read = 0; read < wl->size; read++) {
            int32_t tag = wl->data[read].cref;
            int32_t mapped = remapped(old, tag < 0 ? -1 - tag : tag);
            if (mapped >= 0) {
                wl->data[write].cref = tag < 0 ? -1 - mapped : mapped;
                wl->data[write].blocker = wl->data[read].blocker;
                write++;
            }
        }
        wl->size = write;
    }
    for (int32_t var = 1; var <= k->num_vars; var++)
        if (k->reason[var] >= 0)
            k->reason[var] = remapped(old, k->reason[var]);
    filter_remap(&k->learnts, old);
    for (int32_t h = 0; h < k->handle_cref.size; h++)
        if (k->handle_cref.data[h] >= 0)
            k->handle_cref.data[h] = remapped(old, k->handle_cref.data[h]);
    for (int32_t var = 1; var <= k->num_vars; var++)
        if (k->is_act[var])
            filter_remap(&k->act_learnts[var], old);

    free(old);
    k->pool = fresh;
    k->dead_words = 0;
    k->stats.arena_compactions++;
    k->stats.literal_pool_bytes = (int64_t)fresh.size * (int64_t)sizeof(int32_t);
}

static void maybe_compact(kernel *k)
{
    if (k->trail_lim.size)
        return;
    if (k->dead_words < 2048 || k->dead_words * 2 < k->pool.size)
        return;
    compact(k);
}

/* ------------------------------------------------------------------ */
/* Trail                                                               */
/* ------------------------------------------------------------------ */

static void enqueue(kernel *k, int32_t enc, int32_t reason)
{
    k->values[enc] = 1;
    k->values[enc ^ 1] = -1;
    k->level[enc >> 1] = k->trail_lim.size;
    k->reason[enc >> 1] = reason;
    k->trail.data[k->trail.size++] = enc;
}

static void new_decision_level(kernel *k)
{
    ipush(k, &k->trail_lim, k->trail.size);
    if (k->trail_lim.size > k->stats.max_decision_level)
        k->stats.max_decision_level = k->trail_lim.size;
}

static void cancel_until(kernel *k, int32_t level)
{
    if (k->trail_lim.size <= level)
        return;
    int32_t boundary = k->trail_lim.data[level];
    for (int32_t i = k->trail.size - 1; i >= boundary; i--) {
        int32_t enc = k->trail.data[i];
        int32_t var = enc >> 1;
        if (k->branchable[var]) {
            /* Activation variables keep their fixed false phase and never
               re-enter the decision order. */
            k->phase[var] = enc & 1;
            if (k->heap_pos[var] < 0) {
                k->hkey[var] = -k->activity[var];
                heap_insert(k, var);
            }
        }
        k->values[enc] = 0;
        k->values[enc ^ 1] = 0;
        k->reason[var] = NO_REASON;
    }
    k->trail.size = boundary;
    k->trail_lim.size = level;
    k->qhead = boundary;
}

/* Unit propagation; returns the conflicting clause ref or -1.
   Replacement watches are searched from the end of the clause, so
   dormant guarded clauses park their watch on the activation literal
   (which sorts last). */
static int32_t propagate(kernel *k)
{
    int8_t *values = k->values;
    int32_t *pool = k->pool.data;
    int32_t *trail = k->trail.data;
    int32_t qhead = k->qhead;
    int32_t conflict = -1;
    int64_t props = 0, traversed = 0, hits = 0;
    while (qhead < k->trail.size) {
        int32_t false_lit = trail[qhead++] ^ 1;
        wvec *wl = &k->watches[false_lit];
        watch *ws = wl->data;
        int32_t size = wl->size, read = 0, write = 0;
        props++;
        traversed += size;
        while (read < size) {
            int32_t blocker = ws[read].blocker;
            int32_t cref = ws[read].cref;
            read++;
            int value = values[blocker];
            if (value > 0) {
                ws[write].cref = cref;
                ws[write].blocker = blocker;
                write++;
                hits++;
                continue;
            }
            if (cref < 0) {
                /* Binary clause: the blocker is its other literal. */
                int32_t real = -1 - cref;
                if (pool[real] & DELETED)
                    continue;
                ws[write].cref = cref;
                ws[write].blocker = blocker;
                write++;
                if (value < 0) {
                    conflict = real;
                    while (read < size)
                        ws[write++] = ws[read++];
                } else {
                    enqueue(k, blocker, real);
                }
                continue;
            }
            int32_t header = pool[cref];
            if (header & DELETED)
                continue;
            int32_t base = cref + 2;
            if (pool[base] == false_lit) {
                pool[base] = pool[base + 1];
                pool[base + 1] = false_lit;
            }
            int32_t first = pool[base];
            value = values[first];
            if (value > 0) {
                ws[write].cref = cref;
                ws[write].blocker = first;
                write++;
                continue;
            }
            int moved = 0;
            for (int32_t j = base + (header >> SIZE_SHIFT) - 1; j > base + 1; j--) {
                int32_t lit = pool[j];
                if (values[lit] >= 0) {
                    pool[base + 1] = lit;
                    pool[j] = false_lit;
                    wpush(k, &k->watches[lit], cref, first);
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            ws[write].cref = cref;
            ws[write].blocker = first;
            write++;
            if (value < 0) {
                conflict = cref;
                while (read < size)
                    ws[write++] = ws[read++];
            } else {
                enqueue(k, first, cref);
            }
        }
        wl->size = write;
        if (conflict >= 0) {
            qhead = k->trail.size;
            break;
        }
    }
    k->qhead = qhead;
    k->stats.propagations += props;
    k->stats.watch_traversals += traversed;
    k->stats.blocker_hits += hits;
    return conflict;
}

/* ------------------------------------------------------------------ */
/* Conflict analysis                                                   */
/* ------------------------------------------------------------------ */

static void bump_clause(kernel *k, int32_t cref)
{
    int32_t *pool = k->pool.data;
    double *cla_act = k->cla_act;
    int32_t slot = pool[cref + 1];
    cla_act[slot] += k->cla_inc;
    if (cla_act[slot] > 1e20) {
        for (int32_t i = 0; i < k->learnts.size; i++)
            cla_act[pool[k->learnts.data[i] + 1]] *= 1e-20;
        k->cla_inc *= 1e-20;
    }
}

/* Is the learnt literal enc implied by the other marked literals? */
static int literal_redundant(kernel *k, int32_t enc)
{
    int32_t var = enc >> 1;
    if (k->is_act[var])
        return 0; /* never drop an activation literal */
    int32_t cref = k->reason[var];
    if (cref < 0)
        return 0;
    const int32_t *pool = k->pool.data;
    int32_t base = cref + 2, end = base + (pool[cref] >> SIZE_SHIFT);
    for (int32_t pos = base; pos < end; pos++) {
        int32_t other = pool[pos] >> 1;
        if (other != var && !k->seen[other] && k->level[other] > 0)
            return 0;
    }
    return 1;
}

/* First-UIP analysis into k->learnt (encoded, asserting literal first);
   returns the backtrack level. */
static int32_t analyze(kernel *k, int32_t conflict)
{
    k_ivec *learnt = &k->learnt, *to_clear = &k->to_clear;
    uint8_t *seen = k->seen;
    int32_t *level = k->level;
    int32_t *trail = k->trail.data;
    int32_t level_now = k->trail_lim.size;
    int32_t path_count = 0, p = -1, index = k->trail.size - 1;
    int32_t cref = conflict;
    learnt->size = 0;
    to_clear->size = 0;
    ipush(k, learnt, 0);
    for (;;) {
        const int32_t *pool = k->pool.data;
        int32_t header = pool[cref];
        if (header & LEARNT)
            bump_clause(k, cref);
        /* Reasons contain p itself; skip it by value (binary reasons do
           not keep the implied literal first). */
        int32_t base = cref + 2, end = base + (header >> SIZE_SHIFT);
        for (int32_t pos = base; pos < end; pos++) {
            int32_t enc = pool[pos];
            if (enc == p)
                continue;
            int32_t var = enc >> 1;
            if (!seen[var] && level[var] > 0) {
                seen[var] = 1;
                ipush(k, to_clear, var);
                bump_var(k, var);
                if (level[var] >= level_now)
                    path_count++;
                else
                    ipush(k, learnt, enc);
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        p = trail[index--];
        cref = k->reason[p >> 1];
        seen[p >> 1] = 0;
        if (--path_count == 0)
            break;
    }
    learnt->data[0] = p ^ 1;

    int32_t write = 1;
    for (int32_t i = 1; i < learnt->size; i++)
        if (!literal_redundant(k, learnt->data[i]))
            learnt->data[write++] = learnt->data[i];
    learnt->size = write;
    for (int32_t i = 0; i < to_clear->size; i++)
        seen[to_clear->data[i]] = 0;

    if (learnt->size == 1)
        return 0;
    int32_t *lits = learnt->data, max_index = 1;
    for (int32_t i = 2; i < learnt->size; i++)
        if (level[lits[i] >> 1] > level[lits[max_index] >> 1])
            max_index = i;
    int32_t tmp = lits[1];
    lits[1] = lits[max_index];
    lits[max_index] = tmp;
    return level[lits[1] >> 1];
}

static void core_add(kernel *k, int32_t neg)
{
    if (k->assumed[neg ^ 1])
        ipush(k, &k->core, decode(neg ^ 1));
}

/* Express the falsification of the assumption failed through the
   assumptions: fills k->core. */
static void analyze_final(kernel *k, int32_t failed)
{
    k_ivec *marked = &k->to_clear;
    uint8_t *seen = k->seen;
    for (int32_t i = 0; i < k->assumptions.size; i++)
        k->assumed[k->assumptions.data[i]] = 1;
    k->core.size = 0;
    core_add(k, failed ^ 1);
    if (k->trail_lim.size) {
        marked->size = 0;
        ipush(k, marked, failed >> 1);
        seen[failed >> 1] = 1;
        for (int32_t i = k->trail.size - 1; i >= k->trail_lim.data[0]; i--) {
            int32_t enc = k->trail.data[i], var = enc >> 1;
            if (!seen[var])
                continue;
            int32_t cref = k->reason[var];
            if (cref < 0) {
                core_add(k, enc ^ 1);
            } else {
                const int32_t *pool = k->pool.data;
                int32_t base = cref + 2, end = base + (pool[cref] >> SIZE_SHIFT);
                for (int32_t pos = base; pos < end; pos++) {
                    int32_t other = pool[pos] >> 1;
                    if (other != var && k->level[other] > 0 && !seen[other]) {
                        seen[other] = 1;
                        ipush(k, marked, other);
                    }
                }
            }
            seen[var] = 0;
        }
        for (int32_t i = 0; i < marked->size; i++)
            seen[marked->data[i]] = 0;
    }
    for (int32_t i = 0; i < k->assumptions.size; i++)
        k->assumed[k->assumptions.data[i]] = 0;
}

static void record_learnt(kernel *k)
{
    k_ivec *learnt = &k->learnt;
    if (learnt->size == 1) {
        enqueue(k, learnt->data[0], NO_REASON);
        return;
    }
    int32_t cref = alloc_clause(k, learnt->data, learnt->size, 1);
    attach(k, cref);
    bump_clause(k, cref);
    ipush(k, &k->learnts, cref);
    k->stats.learnt_clauses++;
    if (k->num_acts) {
        /* Index the learnt under every activation group it depends on, so
           that releasing a group purges it in O(dependents). */
        for (int32_t i = 0; i < learnt->size; i++) {
            int32_t var = learnt->data[i] >> 1;
            if (k->is_act[var])
                ipush(k, &k->act_learnts[var], cref);
        }
    }
    enqueue(k, learnt->data[0], cref);
}

/* Learnt-database reduction: a stable sort on (binary, activity). */
static int reduce_lt(const kernel *k, int32_t a, int32_t b)
{
    const int32_t *pool = k->pool.data;
    int binary_a = (pool[a] >> SIZE_SHIFT) <= 2, binary_b = (pool[b] >> SIZE_SHIFT) <= 2;
    if (binary_a != binary_b)
        return binary_a < binary_b;
    return k->cla_act[pool[a + 1]] < k->cla_act[pool[b + 1]];
}

static void merge_sort(kernel *k, int32_t *a, int32_t *tmp, int32_t n)
{
    for (int32_t width = 1; width < n; width *= 2) {
        for (int32_t lo = 0; lo < n; lo += 2 * width) {
            int32_t mid = lo + width < n ? lo + width : n;
            int32_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int32_t i = lo, j = mid, out = lo;
            while (i < mid && j < hi)
                tmp[out++] = reduce_lt(k, a[j], a[i]) ? a[j++] : a[i++];
            while (i < mid)
                tmp[out++] = a[i++];
            while (j < hi)
                tmp[out++] = a[j++];
        }
        memcpy(a, tmp, (size_t)n * sizeof(int32_t));
    }
}

static void reduce_db(kernel *k)
{
    k_ivec *learnts = &k->learnts;
    ivec_reserve(k, &k->sorted_buf, learnts->size);
    merge_sort(k, learnts->data, k->sorted_buf.data, learnts->size);
    int32_t limit = learnts->size / 2, write = 0;
    for (int32_t i = 0; i < learnts->size; i++) {
        int32_t cref = learnts->data[i];
        const int32_t *pool = k->pool.data;
        int32_t size = pool[cref] >> SIZE_SHIFT;
        int locked = k->reason[pool[cref + 2] >> 1] == cref;
        if (i < limit && size > 2 && !locked) {
            delete_clause(k, cref);
            k->stats.removed_clauses++;
        } else {
            learnts->data[write++] = cref;
        }
    }
    learnts->size = write;
    /* Keep the per-activation learnt indexes from piling up entries for
       deleted clauses. */
    const int32_t *pool = k->pool.data;
    for (int32_t var = 1; var <= k->num_vars; var++) {
        k_ivec *dependents = &k->act_learnts[var];
        if (!k->is_act[var] || dependents->size <= 32)
            continue;
        int32_t kept = 0;
        for (int32_t i = 0; i < dependents->size; i++)
            if (!(pool[dependents->data[i]] & DELETED))
                dependents->data[kept++] = dependents->data[i];
        dependents->size = kept;
    }
}

/* ------------------------------------------------------------------ */
/* Search                                                              */
/* ------------------------------------------------------------------ */

static uint64_t rng_next(kernel *k)
{
    uint64_t z = (k->rng_state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int32_t pick_branch_literal(kernel *k)
{
    if (k->rng_on && k->num_vars && (double)(rng_next(k) >> 11) * 0x1.0p-53 < 0.02) {
        int32_t var = 1 + (int32_t)(rng_next(k) % (uint64_t)k->num_vars);
        /* The variable's heap entry stays; pops skip assigned variables. */
        if (k->values[var << 1] == 0 && k->branchable[var])
            return (var << 1) | k->phase[var];
    }
    while (k->heap_size) {
        int32_t var = heap_pop(k);
        if (k->values[var << 1] == 0 && k->branchable[var])
            return (var << 1) | k->phase[var];
    }
    return -1;
}

static int64_t luby(int64_t index)
{
    int64_t size = 1;
    int seq = 0;
    while (size < index + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) >> 1;
        seq--;
        index = index % size;
    }
    return (int64_t)1 << seq;
}

/* CDCL search until SAT, UNSAT or conflict_limit conflicts. */
static int search(kernel *k, int64_t conflict_limit)
{
    int64_t local_conflicts = 0;
    for (;;) {
        int32_t conflict = propagate(k);
        if (conflict >= 0) {
            k->stats.conflicts++;
            local_conflicts++;
            if (!k->trail_lim.size) {
                k->ok = 0;
                k->core.size = 0;
                return L_FALSE;
            }
            int32_t backtrack_level = analyze(k, conflict);
            cancel_until(k, backtrack_level);
            record_learnt(k);
            k->var_inc /= k->var_decay;
            k->cla_inc /= k->clause_decay;
            continue;
        }
        if (local_conflicts >= conflict_limit) {
            k->stats.restarts++;
            cancel_until(k, 0);
            return L_UNDEF;
        }
        if ((double)(k->learnts.size - k->trail.size) >= k->max_learnts)
            reduce_db(k);

        int32_t next = -1;
        while (k->trail_lim.size < k->assumptions.size) {
            int32_t assumption = k->assumptions.data[k->trail_lim.size];
            int value = k->values[assumption];
            if (value > 0) {
                new_decision_level(k);
            } else if (value < 0) {
                analyze_final(k, assumption);
                return L_FALSE;
            } else {
                next = assumption;
                break;
            }
        }
        if (next < 0) {
            next = pick_branch_literal(k);
            if (next < 0)
                return L_TRUE;
            k->stats.decisions++;
        }
        new_decision_level(k);
        enqueue(k, next, NO_REASON);
    }
}

/* ------------------------------------------------------------------ */
/* Clause addition                                                     */
/* ------------------------------------------------------------------ */

static int lit_order(const void *pa, const void *pb)
{
    int32_t a = *(const int32_t *)pa, b = *(const int32_t *)pb;
    int32_t va = a < 0 ? -a : a, vb = b < 0 ? -b : b;
    if (va != vb)
        return va < vb ? -1 : 1;
    return (a > b) - (a < b);
}

/* Deduplicate lits into k->lits sorted by variable and create their
   variables; returns 1 if the clause is a tautology. */
static int prepare(kernel *k, const int32_t *lits, int32_t n)
{
    k_ivec *out = &k->lits;
    ivec_reserve(k, out, n);
    memcpy(out->data, lits, (size_t)n * sizeof(int32_t));
    qsort(out->data, (size_t)n, sizeof(int32_t), lit_order);
    int32_t write = 0, tautology = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t lit = out->data[i];
        if (write && out->data[write - 1] == lit)
            continue;
        if (write && out->data[write - 1] == -lit)
            tautology = 1;
        out->data[write++] = lit;
    }
    out->size = write;
    if (write) {
        int32_t last = out->data[write - 1];
        ensure_var(k, last < 0 ? -last : last);
    }
    return tautology;
}

/* Add a problem clause at level 0.  Returns 0 when the database became
   unsatisfiable; *cref is the stored clause or -1 when the clause was
   simplified away. */
static int add_clause(kernel *k, const int32_t *lits, int32_t n, int32_t *cref)
{
    *cref = -1;
    if (k->trail_lim.size)
        cancel_until(k, 0); /* flushes the reusable assumption trail */
    maybe_compact(k);
    if (!k->ok)
        return 0;
    if (prepare(k, lits, n))
        return 1;
    int32_t *s = k->lits.data, m = 0;
    for (int32_t i = 0; i < k->lits.size; i++) {
        int32_t enc = encode(s[i]);
        int value = k->values[enc];
        if (value > 0)
            return 1; /* satisfied at level 0 */
        if (value == 0)
            s[m++] = enc;
    }
    if (m == 0) {
        k->ok = 0;
        return 0;
    }
    if (m == 1) {
        enqueue(k, s[0], NO_REASON);
        k->ok = propagate(k) < 0;
        return k->ok;
    }
    *cref = alloc_clause(k, s, m, 0);
    attach(k, *cref);
    return 1;
}

/* Attach a clause mid-search without cancelling the trail: exact when
   two of its literals are non-false under the current assignment (only
   level-0 values simplify it).  Returns 0 when the caller must take the
   flushing path instead. */
static int attach_live(kernel *k, const int32_t *lits, int32_t n, int32_t *cref)
{
    *cref = -1;
    if (prepare(k, lits, n))
        return 1;
    int32_t *s = k->lits.data, m = 0;
    for (int32_t i = 0; i < k->lits.size; i++) {
        int32_t enc = encode(s[i]);
        int value = k->values[enc];
        if (value != 0 && k->level[enc >> 1] == 0) {
            if (value > 0)
                return 1; /* satisfied at level 0 */
            continue;     /* false at level 0: drop */
        }
        s[m++] = enc;
    }
    if (m < 2)
        return 0;
    int32_t a = -1, b = -1;
    for (int32_t i = 0; i < m && b < 0; i++) {
        if (k->values[s[i]] >= 0) {
            if (a < 0)
                a = i;
            else
                b = i;
        }
    }
    if (b < 0)
        return 0;
    /* Watch a and b: move them to the front, keeping the rest in order. */
    int32_t wa = s[a], wb = s[b];
    memmove(s + a + 2, s + a + 1, (size_t)(b - a - 1) * sizeof(int32_t));
    memmove(s + 2, s, (size_t)a * sizeof(int32_t));
    s[0] = wa;
    s[1] = wb;
    *cref = alloc_clause(k, s, m, 0);
    attach(k, *cref);
    return 1;
}

static int32_t new_handle(kernel *k, int32_t cref)
{
    if (cref < 0)
        return -1;
    int32_t handle;
    if (k->handle_free.size) {
        handle = k->handle_free.data[--k->handle_free.size];
        k->handle_cref.data[handle] = cref;
    } else {
        handle = k->handle_cref.size;
        ipush(k, &k->handle_cref, cref);
    }
    return handle;
}

static void free_handle(kernel *k, int32_t handle)
{
    k->handle_cref.data[handle] = -1;
    ipush(k, &k->handle_free, handle);
}

/* 1 unless some literal is 0 or out of the encoded int32 range. */
static int valid_literals(const int32_t *lits, int32_t n)
{
    for (int32_t i = 0; i < n; i++)
        if (lits[i] == 0 || lits[i] < -MAX_VAR || lits[i] > MAX_VAR)
            return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Exported API                                                        */
/* ------------------------------------------------------------------ */

#define ENTER(k)                 \
    do {                         \
        if ((k)->broken)         \
            return -1;           \
        if (setjmp((k)->oom)) {  \
            (k)->broken = 1;     \
            return -1;           \
        }                        \
    } while (0)

kernel *k_new(double var_decay, double clause_decay, int64_t restart_base,
              double max_learnt_factor, double learnt_growth)
{
    kernel *k = calloc(1, sizeof(kernel));
    if (!k)
        return NULL;
    k->var_decay = var_decay;
    k->clause_decay = clause_decay;
    k->restart_base = restart_base;
    k->max_learnt_factor = max_learnt_factor;
    k->learnt_growth = learnt_growth;
    k->ok = 1;
    k->var_inc = 1.0;
    k->cla_inc = 1.0;
    k->max_learnts = 1000.0;
    k->cap_vars = -1;
    if (setjmp(k->oom)) {
        free(k);
        return NULL;
    }
    grow_vars(k, 15);
    k->values[0] = k->values[1] = 0;
    return k;
}

static void ivec_free(k_ivec *v) { free(v->data); }

void k_free(kernel *k)
{
    for (int32_t enc = 0; enc <= 2 * k->cap_vars + 1; enc++)
        free(k->watches[enc].data);
    for (int32_t var = 0; var <= k->cap_vars; var++)
        ivec_free(&k->act_learnts[var]);
    free(k->values);
    free(k->watches);
    free(k->assumed);
    free(k->level);
    free(k->reason);
    free(k->phase);
    free(k->branchable);
    free(k->seen);
    free(k->is_act);
    free(k->activity);
    free(k->act_learnts);
    free(k->hkey);
    free(k->heap);
    free(k->heap_pos);
    free(k->cla_act);
    k_ivec *vecs[] = {&k->core, &k->learnts, &k->pool, &k->cla_free, &k->trail,
                      &k->trail_lim, &k->assumptions, &k->act_free, &k->handle_cref,
                      &k->handle_free, &k->learnt, &k->to_clear, &k->lits,
                      &k->sorted_buf};
    for (size_t i = 0; i < sizeof(vecs) / sizeof(vecs[0]); i++)
        ivec_free(vecs[i]);
    free(k);
}

void k_set_seed(kernel *k, int enabled, uint64_t seed)
{
    k->rng_on = enabled;
    k->rng_state = seed;
}

int32_t k_new_var(kernel *k)
{
    ENTER(k);
    return new_var(k);
}

int k_ensure_var(kernel *k, int32_t var)
{
    ENTER(k);
    ensure_var(k, var);
    return 0;
}

int k_add_clause(kernel *k, const int32_t *lits, int32_t n)
{
    int32_t cref;
    ENTER(k);
    if (!valid_literals(lits, n))
        return BAD_LITERAL;
    return add_clause(k, lits, n, &cref);
}

int32_t k_new_activation(kernel *k)
{
    int32_t act;
    ENTER(k);
    if (k->act_free.size) {
        act = k->act_free.data[--k->act_free.size];
        k->stats.activation_vars_recycled++;
    } else {
        act = new_var(k);
        k->stats.activation_vars_allocated++;
        k->branchable[act] = 0; /* fixed false phase, never branched on */
    }
    if (k->values[act << 1] != 0 && k->trail_lim.size)
        cancel_until(k, 0); /* a stale decision from the reusable trail */
    k->is_act[act] = 1;
    k->act_learnts[act].size = 0;
    k->num_acts++;
    return act;
}

/* Add (-act OR lits) to act's group.  Returns ((handle + 1) << 1) | ok,
   with handle -1 when the clause was simplified away. */
int64_t k_add_guarded(kernel *k, int32_t act, const int32_t *lits, int32_t n)
{
    int32_t cref = -1;
    int ok = 1;
    ENTER(k);
    if (!valid_literals(lits, n))
        return BAD_LITERAL;
    /* Stage (-act, lits...) behind the scratch used by prepare(). */
    ivec_reserve(k, &k->sorted_buf, n + 1);
    int32_t *clause = k->sorted_buf.data;
    clause[0] = -act;
    memcpy(clause + 1, lits, (size_t)n * sizeof(int32_t));
    if (!k->trail_lim.size || !attach_live(k, clause, n + 1, &cref))
        ok = add_clause(k, clause, n + 1, &cref);
    k->stats.guarded_clauses_added++;
    return ((int64_t)new_handle(k, cref) + 1) * 2 + ok;
}

int k_remove_guarded(kernel *k, int32_t handle)
{
    ENTER(k);
    if (delete_clause(k, k->handle_cref.data[handle]))
        k->stats.guarded_clauses_freed++;
    free_handle(k, handle);
    return 0;
}

int k_release(kernel *k, int32_t act, const int32_t *handles, int32_t n)
{
    ENTER(k);
    if (k->trail_lim.size)
        cancel_until(k, 0); /* guarded clauses may be reasons on the trail */
    for (int32_t i = 0; i < n; i++) {
        if (delete_clause(k, k->handle_cref.data[handles[i]]))
            k->stats.guarded_clauses_freed++;
        free_handle(k, handles[i]);
    }
    k_ivec *dependents = &k->act_learnts[act];
    int32_t purged = 0;
    for (int32_t i = 0; i < dependents->size; i++)
        purged += delete_clause(k, dependents->data[i]);
    dependents->size = 0;
    k->is_act[act] = 0;
    k->num_acts--;
    if (purged) {
        const int32_t *pool = k->pool.data;
        k_ivec *learnts = &k->learnts;
        int32_t write = 0;
        for (int32_t i = 0; i < learnts->size; i++)
            if (!(pool[learnts->data[i]] & DELETED))
                learnts->data[write++] = learnts->data[i];
        learnts->size = write;
        k->stats.learnts_purged += purged;
    }
    if (k->values[act << 1] != 0) {
        /* Fixed at level 0 (always false): never hand it out again. */
        k->stats.activation_vars_retired++;
    } else {
        ipush(k, &k->act_free, act);
    }
    maybe_compact(k);
    return 0;
}

/* Solve under assumptions with a conflict budget (-1: none).  Returns 1
   SAT (the model is values[]), 0 UNSAT (the core is in core), 2 budget
   exhausted. */
int k_solve(kernel *k, const int32_t *assumptions, int32_t n, int64_t budget)
{
    ENTER(k);
    if (!valid_literals(assumptions, n))
        return BAD_LITERAL;
    k->stats.solve_calls++;
    k->core.size = 0;
    if (!k->ok) {
        cancel_until(k, 0);
        return L_FALSE;
    }
    ivec_reserve(k, &k->lits, n);
    for (int32_t i = 0; i < n; i++) {
        int32_t lit = assumptions[i];
        ensure_var(k, lit < 0 ? -lit : lit);
        k->lits.data[i] = encode(lit);
    }
    /* Keep the decision levels of the shared assumption prefix. */
    int32_t limit = n;
    if (k->assumptions.size < limit)
        limit = k->assumptions.size;
    if (k->trail_lim.size < limit)
        limit = k->trail_lim.size;
    int32_t keep = 0;
    while (keep < limit && k->lits.data[keep] == k->assumptions.data[keep])
        keep++;
    cancel_until(k, keep);
    k->stats.assumption_levels_reused += keep;
    ivec_reserve(k, &k->assumptions, n);
    memcpy(k->assumptions.data, k->lits.data, (size_t)n * sizeof(int32_t));
    k->assumptions.size = n;

    k->max_learnts = (double)k->num_problem * k->max_learnt_factor;
    if (k->max_learnts < 1000.0)
        k->max_learnts = 1000.0;
    int64_t budget_left = budget;
    int64_t round = 0;
    int status = L_UNDEF;
    while (status == L_UNDEF) {
        int64_t restart_limit = k->restart_base * luby(round);
        if (budget >= 0) {
            if (budget_left <= 0)
                break;
            if (budget_left < restart_limit)
                restart_limit = budget_left;
        }
        int64_t before = k->stats.conflicts;
        status = search(k, restart_limit);
        if (budget >= 0)
            budget_left -= k->stats.conflicts - before;
        round++;
        k->max_learnts *= k->learnt_growth;
    }
    if (status == L_UNDEF)
        cancel_until(k, 0);
    return status;
}
