/*
 * Compiled trace-order kernels for the paper's 2-way and victim caches.
 *
 * Two loops, each switching on the replacement policy:
 *
 *   two_way_run  -- a 2-way set-associative cache, skewed or conventional
 *                   (a conventional cache passes its one set array for
 *                   both ways), any policy, either write policy;
 *   victim_run   -- a direct-mapped main cache backed by a fully
 *                   associative victim buffer (swap on victim hit,
 *                   displaced lines stashed, dirty spills counted).
 *
 * Both are line-for-line ports of the Python kernels in
 * repro/engine/skew_decompose.py and operate in place on the same state
 * layout: tag arrays (-1 == invalid frame), dirty bytes, the per-way
 * timestamp tables and PLRU direction bits of replacement_vec.py, and the
 * random policy's draw counter, so a cache can hand off between this
 * tier, the Python kernels and the scalar models mid-stream.  The random
 * policy's n-th eviction draws splitmix64(seed + n) % ways, exactly like
 * repro.core.splitmix.splitmix64.
 *
 * Build: cc -O2 -shared -fPIC _kernels.c -o _kernels.so (done on demand by
 * repro/engine/cext.py).
 */

#include <stdint.h>

enum { POLICY_LRU = 0, POLICY_FIFO = 1, POLICY_RANDOM = 2, POLICY_PLRU = 3 };

static inline uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Pre-order midpoint-split tree over `ways` leaves (see plru_touch in
 * repro/cache/replacement.py); bits[node] != 0 sends the walk right. */
static void plru_touch(uint8_t *bits, int64_t way, int64_t ways)
{
    int64_t offset = 0, low = 0, high = ways;
    if (ways < 2)
        return;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        int go_right = way >= mid;
        bits[offset] = !go_right;
        if (go_right) {
            offset += mid - low;
            low = mid;
        } else {
            offset += 1;
            high = mid;
        }
    }
}

static int64_t plru_victim(const uint8_t *bits, int64_t ways)
{
    int64_t offset = 0, low = 0, high = ways;
    while (high - low > 1) {
        int64_t mid = (low + high) / 2;
        if (bits[offset]) {
            offset += mid - low;
            low = mid;
        } else {
            offset += 1;
            high = mid;
        }
    }
    return low;
}

/*
 * io (in/out): [0] access clock, [1] random draw counter; accumulated:
 * [2] load misses, [3] store misses, [4] evictions, [5] writebacks.
 * u0/u1 are the per-way timestamps (unused by random), dir the one PLRU
 * direction bit per set (nonzero sends the victim to way 1; PLRU only).
 */
void two_way_run(int64_t n, const int64_t *blocks, const int64_t *s0,
                 const int64_t *s1, const uint8_t *writes, int policy,
                 int write_back, int64_t *t0, int64_t *t1, uint8_t *d0,
                 uint8_t *d1, int64_t *u0, int64_t *u1, uint8_t *dir,
                 uint64_t seed, int64_t *io, uint8_t *hits)
{
    const int refresh = policy == POLICY_LRU || policy == POLICY_PLRU;
    const int stamped = policy != POLICY_RANDOM;
    const int plru = policy == POLICY_PLRU;
    int64_t clock = io[0];
    uint64_t counter = (uint64_t)io[1];
    int64_t load_misses = 0, store_misses = 0, evictions = 0, writebacks = 0;

    for (int64_t i = 0; i < n; i++) {
        const int64_t b = blocks[i], sa = s0[i], sb = s1[i];
        const int w = writes[i] != 0;
        int way;

        clock++;
        if (t0[sa] == b) {
            hits[i] = 1;
            if (refresh)
                u0[sa] = clock;
            if (plru)
                dir[sa] = 1;
            if (w && write_back)
                d0[sa] = 1;
            continue;
        }
        if (t1[sb] == b) {
            hits[i] = 1;
            if (refresh)
                u1[sb] = clock;
            if (plru)
                dir[sb] = 0;
            if (w && write_back)
                d1[sb] = 1;
            continue;
        }
        hits[i] = 0;
        if (w) {
            store_misses++;
            if (!write_back)
                continue; /* write-through / no-write-allocate */
        } else {
            load_misses++;
        }
        /* Invalid frames first, in way order; then the policy's victim. */
        if (t0[sa] < 0) {
            way = 0;
        } else if (t1[sb] < 0) {
            way = 1;
        } else {
            if (policy == POLICY_RANDOM)
                way = (int)(splitmix64(seed + counter++) % 2);
            else if (plru && sa == sb)
                way = dir[sa] != 0;
            else
                /* LRU/FIFO stamps, and PLRU's true-LRU fallback when the
                 * skewed candidates sit in different sets: ties go to way 0. */
                way = u0[sa] <= u1[sb] ? 0 : 1;
            evictions++;
            if (way ? d1[sb] : d0[sa])
                writebacks++;
        }
        if (way) {
            t1[sb] = b;
            d1[sb] = (uint8_t)w;
            if (stamped)
                u1[sb] = clock;
            if (plru)
                dir[sb] = 0;
        } else {
            t0[sa] = b;
            d0[sa] = (uint8_t)w;
            if (stamped)
                u0[sa] = clock;
            if (plru)
                dir[sa] = 1;
        }
    }
    io[0] = clock;
    io[1] = (int64_t)counter;
    io[2] += load_misses;
    io[3] += store_misses;
    io[4] += evictions;
    io[5] += writebacks;
}

/*
 * io (in/out): [0] main clock, [1] buffer clock, [2] main draw counter,
 * [3] buffer draw counter; accumulated: [4] load misses, [5] store misses,
 * [6] main hits, [7] victim hits, [8] buffer writebacks.
 * mstamp: main timestamps (unused by random); vstamp/vbits: the buffer's
 * timestamps (unused by random) and PLRU tree (PLRU only).  The main cache
 * is write-back / write-allocate; a buffer hit frees its entry.
 */
void victim_run(int64_t n, const int64_t *blocks, const int64_t *sets,
                const uint8_t *writes, int policy, int64_t *t0, uint8_t *d0,
                int64_t *mstamp, int64_t entries, int64_t *vtags,
                uint8_t *vdirty, int64_t *vstamp, uint8_t *vbits,
                uint64_t seed, int64_t *io, uint8_t *hits)
{
    const int refresh = policy == POLICY_LRU || policy == POLICY_PLRU;
    const int stamped = policy != POLICY_RANDOM;
    int64_t main_clock = io[0], victim_clock = io[1];
    int64_t main_draws = io[2];
    uint64_t counter = (uint64_t)io[3];
    int64_t load_misses = 0, store_misses = 0, main_hits = 0;
    int64_t victim_hits = 0, writebacks = 0;

    for (int64_t i = 0; i < n; i++) {
        const int64_t b = blocks[i], s = sets[i];
        const int w = writes[i] != 0;
        int64_t evicted, slot;
        uint8_t evicted_dirty;

        main_clock++;
        if (t0[s] == b) {
            if (refresh)
                mstamp[s] = main_clock;
            if (w)
                d0[s] = 1;
            main_hits++;
            hits[i] = 1;
            continue;
        }
        /* Main miss: probe the buffer; a hit leaves it (swap). */
        slot = -1;
        for (int64_t j = 0; j < entries; j++) {
            if (vtags[j] == b) {
                slot = j;
                break;
            }
        }
        if (slot >= 0) {
            hits[i] = 1;
            victim_hits++;
            vtags[slot] = -1;
            vdirty[slot] = 0;
        } else {
            hits[i] = 0;
            if (w)
                store_misses++;
            else
                load_misses++;
        }
        /* Refill the main cache. */
        evicted = t0[s];
        evicted_dirty = d0[s];
        t0[s] = b;
        d0[s] = (uint8_t)w;
        if (stamped)
            mstamp[s] = main_clock;
        if (evicted < 0)
            continue;
        /* One way: the pick is forced, but the random policy still
         * consumes one draw per eviction. */
        if (!stamped)
            main_draws++;
        /* Stash the displaced line: first free entry, else the victim. */
        victim_clock++;
        slot = -1;
        for (int64_t j = 0; j < entries; j++) {
            if (vtags[j] < 0) {
                slot = j;
                break;
            }
        }
        if (slot < 0) {
            if (policy == POLICY_RANDOM) {
                slot = (int64_t)(splitmix64(seed + counter++)
                                 % (uint64_t)entries);
            } else if (policy == POLICY_PLRU) {
                slot = plru_victim(vbits, entries);
            } else {
                slot = 0;
                for (int64_t j = 1; j < entries; j++) {
                    if (vstamp[j] < vstamp[slot])
                        slot = j;
                }
            }
            if (vdirty[slot])
                writebacks++; /* a dirty line leaves the buffer */
        }
        vtags[slot] = evicted;
        vdirty[slot] = evicted_dirty;
        if (stamped)
            vstamp[slot] = victim_clock;
        if (policy == POLICY_PLRU)
            plru_touch(vbits, slot, entries);
    }
    io[0] = main_clock;
    io[1] = victim_clock;
    io[2] = main_draws;
    io[3] = (int64_t)counter;
    io[4] += load_misses;
    io[5] += store_misses;
    io[6] += main_hits;
    io[7] += victim_hits;
    io[8] += writebacks;
}
