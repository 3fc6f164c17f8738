/* Fast-path cache hierarchy kernel.
 *
 * An exact port of the pure-Python reference loop in
 * repro/cachesim/hierarchy.py (simulate_trace_reference): a three-level
 * set-associative hierarchy with registry-dispatched replacement plus
 * the last-writer snoop directory (an ordered dict with capacity
 * eviction).  Counter-for-counter equivalence with the reference is
 * enforced by tests/cachesim/test_fast_engine.py,
 * tests/engines/test_differential.py and
 * benchmarks/test_engine_equivalence.py; any behavioural change here
 * must keep that property (or change both implementations together).
 *
 * Replacement policies mirror repro/cachesim/policies.py row for row:
 * POLICY_TABLE is indexed by the registry's integer code and carries
 * the per-class (hot/cold) promotion + insert-position flags and the
 * hot-line eviction-protection flag.  The hot-block classification is
 * a sorted array installed once via repro_sim_set_hot.
 *
 * Compiled on demand by repro/cachesim/fast.py with the system C compiler
 * into a shared library and driven through ctypes:
 *
 *   handle = repro_sim_create(...geometry..., policy)
 *   repro_sim_set_hot(handle, blocks, n)                       // optional
 *   repro_sim_step(handle, blocks, counts, writes, cores, n)   // chunked
 *   repro_sim_counters(handle, out[8])
 *   repro_sim_destroy(handle)
 *
 * Way lists mirror the Python lists exactly: index 0 is the LRU end
 * (pop position), index len-1 the MRU end.  The directory mirrors
 * OrderedDict: insertion/move_to_end order, popitem(last=False) evicts
 * the head.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DIR_EMPTY (-1)
#define DIR_TOMB (-2)

/* One row of the policy-dispatch table; mirrors
 * repro.cachesim.policies.ReplacementPolicy flag for flag. */
typedef struct {
    int promote_hot, promote_cold;       /* hit moves line to MRU */
    int insert_mru_hot, insert_mru_cold; /* fill position (else LRU end) */
    int protect_hot;                     /* eviction skips hot lines */
} PolicySpec;

static const PolicySpec POLICY_TABLE[] = {
    {1, 1, 1, 1, 0}, /* 0: lru   */
    {0, 0, 1, 1, 0}, /* 1: fifo  */
    {1, 1, 0, 0, 0}, /* 2: lip   */
    {1, 1, 1, 0, 1}, /* 3: grasp */
};
#define NUM_POLICIES ((int32_t)(sizeof(POLICY_TABLE) / sizeof(POLICY_TABLE[0])))

typedef struct {
    int64_t *tags;  /* num_sets * ways, list-ordered LRU..MRU */
    int32_t *len;   /* live lines per set */
    int64_t mask;   /* num_sets - 1 */
    int32_t ways;
} Level;

typedef struct {
    int64_t key;
    int64_t core;
    int32_t prev, next; /* recency list when live; next doubles as freelist */
} DirEntry;

typedef struct {
    Level l1, l2, l3;
    int64_t cores_per_socket;
    int64_t ownership_cap;
    PolicySpec pol;     /* POLICY_TABLE row for this instance */
    int64_t *hot_blocks; /* sorted hot-block IDs (skew-aware policies) */
    int64_t hot_n;

    /* last-writer directory: hash table of entry indices + recency list */
    DirEntry *entries;
    int32_t entries_cap;
    int32_t free_head;
    int32_t head, tail;
    int64_t dir_size;
    int32_t *table;
    int64_t table_size; /* power of two */
    int64_t table_used;
    int64_t table_tomb;

    int64_t accesses, l1_miss, l2_miss, l3_miss;
    int64_t l3_hit, snoop_local, snoop_remote, offchip;
} Sim;

static uint64_t hash64(uint64_t x) {
    /* splitmix64 finalizer */
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

static int64_t floor_div(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* ---------------------------------------------------------------- levels */

static int level_init(Level *L, int64_t num_sets, int64_t ways) {
    L->mask = num_sets - 1;
    L->ways = (int32_t)ways;
    L->tags = (int64_t *)malloc((size_t)(num_sets * ways) * sizeof(int64_t));
    L->len = (int32_t *)calloc((size_t)num_sets, sizeof(int32_t));
    return (L->tags && L->len) ? 0 : -1;
}

static void level_free(Level *L) {
    free(L->tags);
    free(L->len);
}

/* Lookup (and promote on hit when the policy promotes); 1 on hit. */
static int level_access(Level *L, int64_t b, int promote) {
    int64_t set = b & L->mask;
    int64_t *w = L->tags + set * L->ways;
    int32_t len = L->len[set];
    for (int32_t j = 0; j < len; j++) {
        if (w[j] == b) {
            if (promote && j != len - 1) {
                memmove(w + j, w + j + 1,
                        (size_t)(len - 1 - j) * sizeof(int64_t));
                w[len - 1] = b;
            }
            return 1;
        }
    }
    return 0;
}

/* Whether a block is classified hot (binary search; empty set = cold). */
static int sim_is_hot(const Sim *s, int64_t b) {
    int64_t lo = 0, hi = s->hot_n;
    if (hi == 0)
        return 0;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (s->hot_blocks[mid] < b)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < s->hot_n && s->hot_blocks[lo] == b;
}

/* Fill after a miss: evict the del ways[victim] line when full, then
 * insert.  The victim is index 0 (the LRU end), except under a
 * protecting policy, which scans for the first *cold* line and only
 * falls back to index 0 when the whole set is hot. */
static void level_insert(const Sim *s, Level *L, int64_t b, int insert_mru) {
    int64_t set = b & L->mask;
    int64_t *w = L->tags + set * L->ways;
    int32_t len = L->len[set];
    if (len >= L->ways) {
        int32_t victim = 0;
        if (s->pol.protect_hot) {
            for (int32_t j = 0; j < len; j++) {
                if (!sim_is_hot(s, w[j])) {
                    victim = j;
                    break;
                }
            }
        }
        memmove(w + victim, w + victim + 1,
                (size_t)(len - 1 - victim) * sizeof(int64_t));
        len--;
    }
    if (insert_mru) {
        w[len] = b;
    } else {
        memmove(w + 1, w, (size_t)len * sizeof(int64_t));
        w[0] = b;
    }
    L->len[set] = len + 1;
}

/* Snoop-path fill: MRU append when absent, no promotion when present. */
static void level_force_insert(Level *L, int64_t b) {
    int64_t set = b & L->mask;
    int64_t *w = L->tags + set * L->ways;
    int32_t len = L->len[set];
    for (int32_t j = 0; j < len; j++)
        if (w[j] == b)
            return;
    if (len >= L->ways) {
        memmove(w, w + 1, (size_t)(len - 1) * sizeof(int64_t));
        len--;
    }
    w[len] = b;
    L->len[set] = len + 1;
}

/* ------------------------------------------------------------- directory */

static int64_t dir_lookup(const Sim *s, int64_t key) {
    uint64_t m = (uint64_t)s->table_size - 1;
    uint64_t i = hash64((uint64_t)key) & m;
    for (;;) {
        int32_t e = s->table[i];
        if (e == DIR_EMPTY)
            return -1;
        if (e != DIR_TOMB && s->entries[e].key == key)
            return e;
        i = (i + 1) & m;
    }
}

static int dir_rehash(Sim *s, int64_t new_size) {
    int32_t *table = (int32_t *)malloc((size_t)new_size * sizeof(int32_t));
    if (!table)
        return -1;
    for (int64_t i = 0; i < new_size; i++)
        table[i] = DIR_EMPTY;
    uint64_t m = (uint64_t)new_size - 1;
    for (int32_t e = s->head; e >= 0; e = s->entries[e].next) {
        uint64_t i = hash64((uint64_t)s->entries[e].key) & m;
        while (table[i] != DIR_EMPTY)
            i = (i + 1) & m;
        table[i] = e;
    }
    free(s->table);
    s->table = table;
    s->table_size = new_size;
    s->table_used = s->dir_size;
    s->table_tomb = 0;
    return 0;
}

static int32_t dir_alloc_entry(Sim *s) {
    if (s->free_head < 0) {
        int32_t cap = s->entries_cap;
        int32_t new_cap = cap << 1;
        DirEntry *grown =
            (DirEntry *)realloc(s->entries, (size_t)new_cap * sizeof(DirEntry));
        if (!grown)
            return -1;
        s->entries = grown;
        for (int32_t i = cap; i < new_cap; i++)
            grown[i].next = (i + 1 < new_cap) ? i + 1 : -1;
        s->free_head = cap;
        s->entries_cap = new_cap;
    }
    int32_t e = s->free_head;
    s->free_head = s->entries[e].next;
    return e;
}

static void list_unlink(Sim *s, int32_t e) {
    DirEntry *E = s->entries;
    if (E[e].prev >= 0)
        E[E[e].prev].next = E[e].next;
    else
        s->head = E[e].next;
    if (E[e].next >= 0)
        E[E[e].next].prev = E[e].prev;
    else
        s->tail = E[e].prev;
}

static void list_append(Sim *s, int32_t e) {
    DirEntry *E = s->entries;
    E[e].prev = s->tail;
    E[e].next = -1;
    if (s->tail >= 0)
        E[s->tail].next = e;
    else
        s->head = e;
    s->tail = e;
}

/* last_writer[key] = core, plus move_to_end.  0 on success, -1 on OOM. */
static int dir_set(Sim *s, int64_t key, int64_t core) {
    int64_t e = dir_lookup(s, key);
    if (e >= 0) {
        s->entries[e].core = core;
        list_unlink(s, (int32_t)e);
        list_append(s, (int32_t)e);
        return 0;
    }
    if (2 * (s->table_used + s->table_tomb + 1) > s->table_size)
        if (dir_rehash(s, 2 * (s->table_used + 1) > s->table_size / 2
                              ? s->table_size * 2
                              : s->table_size) != 0)
            return -1;
    int32_t idx = dir_alloc_entry(s);
    if (idx < 0)
        return -1;
    s->entries[idx].key = key;
    s->entries[idx].core = core;
    list_append(s, idx);
    uint64_t m = (uint64_t)s->table_size - 1;
    uint64_t i = hash64((uint64_t)key) & m;
    while (s->table[i] != DIR_EMPTY && s->table[i] != DIR_TOMB)
        i = (i + 1) & m;
    if (s->table[i] == DIR_TOMB)
        s->table_tomb--;
    s->table[i] = idx;
    s->table_used++;
    s->dir_size++;
    return 0;
}

static void dir_delete(Sim *s, int64_t key) {
    uint64_t m = (uint64_t)s->table_size - 1;
    uint64_t i = hash64((uint64_t)key) & m;
    for (;;) {
        int32_t e = s->table[i];
        if (e == DIR_EMPTY)
            return; /* not present (never happens on valid calls) */
        if (e != DIR_TOMB && s->entries[e].key == key) {
            s->table[i] = DIR_TOMB;
            s->table_tomb++;
            s->table_used--;
            list_unlink(s, e);
            s->entries[e].next = s->free_head;
            s->free_head = e;
            s->dir_size--;
            return;
        }
        i = (i + 1) & m;
    }
}

/* --------------------------------------------------------------- public */

void *repro_sim_create(int64_t l1_sets, int64_t l1_ways, int64_t l2_sets,
                       int64_t l2_ways, int64_t l3_sets, int64_t l3_ways,
                       int64_t cores_per_socket, int64_t ownership_cap,
                       int32_t policy) {
    if (policy < 0 || policy >= NUM_POLICIES)
        return NULL;
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s)
        return NULL;
    if (level_init(&s->l1, l1_sets, l1_ways) != 0 ||
        level_init(&s->l2, l2_sets, l2_ways) != 0 ||
        level_init(&s->l3, l3_sets, l3_ways) != 0)
        goto fail;
    s->cores_per_socket = cores_per_socket;
    s->ownership_cap = ownership_cap;
    s->pol = POLICY_TABLE[policy];
    s->entries_cap = 128;
    s->entries = (DirEntry *)malloc((size_t)s->entries_cap * sizeof(DirEntry));
    if (!s->entries)
        goto fail;
    for (int32_t i = 0; i < s->entries_cap; i++)
        s->entries[i].next = (i + 1 < s->entries_cap) ? i + 1 : -1;
    s->free_head = 0;
    s->head = s->tail = -1;
    s->table_size = 256;
    s->table = (int32_t *)malloc((size_t)s->table_size * sizeof(int32_t));
    if (!s->table)
        goto fail;
    for (int64_t i = 0; i < s->table_size; i++)
        s->table[i] = DIR_EMPTY;
    return s;
fail:
    level_free(&s->l1);
    level_free(&s->l2);
    level_free(&s->l3);
    free(s->entries);
    free(s->table);
    free(s);
    return NULL;
}

/* Install the sorted hot-block classification (replacing any previous
 * one; n == 0 clears it).  Must be called between steps, never during
 * one.  Returns 0 on success, -1 on OOM. */
int32_t repro_sim_set_hot(void *handle, const int64_t *blocks, int64_t n) {
    Sim *s = (Sim *)handle;
    int64_t *copy = NULL;
    if (n > 0) {
        copy = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        if (!copy)
            return -1;
        memcpy(copy, blocks, (size_t)n * sizeof(int64_t));
    }
    free(s->hot_blocks);
    s->hot_blocks = copy;
    s->hot_n = n > 0 ? n : 0;
    return 0;
}

int32_t repro_sim_step(void *handle, const int64_t *blocks,
                       const int64_t *counts, const uint8_t *writes,
                       const int64_t *cores, int64_t n) {
    Sim *s = (Sim *)handle;
    int64_t cps = s->cores_per_socket;
    for (int64_t i = 0; i < n; i++) {
        int64_t b = blocks[i];
        int64_t core = cores[i];
        int is_write = writes[i];
        s->accesses += counts[i];
        int64_t e = dir_lookup(s, b);
        if (e >= 0 && s->entries[e].core != core) {
            /* Dirty in another core's private cache: forced snoop. */
            s->l1_miss++;
            s->l2_miss++;
            if (floor_div(s->entries[e].core, cps) == floor_div(core, cps))
                s->snoop_local++;
            else
                s->snoop_remote++;
            if (is_write) {
                s->entries[e].core = core;
                list_unlink(s, (int32_t)e);
                list_append(s, (int32_t)e);
            } else {
                dir_delete(s, b); /* downgraded to shared */
            }
            level_force_insert(&s->l1, b);
            level_force_insert(&s->l2, b);
            continue;
        }
        int hot = sim_is_hot(s, b);
        int promote = hot ? s->pol.promote_hot : s->pol.promote_cold;
        int insert_mru = hot ? s->pol.insert_mru_hot : s->pol.insert_mru_cold;
        if (!level_access(&s->l1, b, promote)) {
            s->l1_miss++;
            if (!level_access(&s->l2, b, promote)) {
                s->l2_miss++;
                if (level_access(&s->l3, b, promote)) {
                    s->l3_hit++;
                } else {
                    s->l3_miss++;
                    s->offchip++;
                    level_insert(s, &s->l3, b, insert_mru);
                }
                level_insert(s, &s->l2, b, insert_mru);
            }
            level_insert(s, &s->l1, b, insert_mru);
        }
        if (is_write) {
            if (dir_set(s, b, core) != 0)
                return -1;
            if (s->dir_size > s->ownership_cap) {
                /* Oldest dirty line is written back; ownership expires. */
                dir_delete(s, s->entries[s->head].key);
            }
        }
    }
    return 0;
}

void repro_sim_counters(void *handle, int64_t *out) {
    const Sim *s = (const Sim *)handle;
    out[0] = s->accesses;
    out[1] = s->l1_miss;
    out[2] = s->l2_miss;
    out[3] = s->l3_miss;
    out[4] = s->l3_hit;
    out[5] = s->snoop_local;
    out[6] = s->snoop_remote;
    out[7] = s->offchip;
}

void repro_sim_destroy(void *handle) {
    Sim *s = (Sim *)handle;
    if (!s)
        return;
    level_free(&s->l1);
    level_free(&s->l2);
    level_free(&s->l3);
    free(s->hot_blocks);
    free(s->entries);
    free(s->table);
    free(s);
}
