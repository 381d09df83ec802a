/*
 * Compiled loops for the paper's 2-way and victim caches and for the
 * Section 4 out-of-order timing model.
 *
 * Three loops; the two cache loops switch on the replacement policy:
 *
 *   two_way_run  -- a 2-way set-associative cache, skewed or conventional
 *                   (a conventional cache passes its one set array for
 *                   both ways), any policy, either write policy;
 *   victim_run   -- a direct-mapped main cache backed by a fully
 *                   associative victim buffer (swap on victim hit,
 *                   displaced lines stashed, dirty spills counted);
 *   ooo_run      -- the whole OutOfOrderProcessor.run pipeline loop over
 *                   a columnar instruction stream, with its lockup-free
 *                   2-way LRU write-through / no-allocate L1.
 *
 * The cache loops are line-for-line ports of the Python kernels in
 * repro/engine/skew_decompose.py and operate in place on the same state
 * layout: tag arrays (-1 == invalid frame), dirty bytes, the per-way
 * timestamp tables and PLRU direction bits of replacement_vec.py, and the
 * random policy's draw counter, so a cache can hand off between this
 * tier, the Python kernels and the scalar models mid-stream.  The random
 * policy's n-th eviction draws splitmix64(seed + n) % ways, exactly like
 * repro.core.splitmix.splitmix64.  ooo_run ports repro/cpu/processor.py
 * and the component models it drives (see its own comment).
 *
 * Build: cc -O2 -shared -fPIC _kernels.c -o _kernels.so (done on demand by
 * repro/engine/cext.py).
 */

#include <stdint.h>
#include <stdlib.h>

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

/* ------------------------------------------------------------------ */
/* The out-of-order timing model (repro/cpu/processor.py).             */
/* ------------------------------------------------------------------ */

/* Op codes: the index of each class in repro.cpu.isa.OpClass.ALL. */
enum { OP_LOAD = 7, OP_STORE = 8, OP_BRANCH = 9, N_OPS = 10 };

/* cfg[] slots, filled by repro/cpu/compiled.py. */
enum {
    CFG_FETCH_WIDTH, CFG_COMMIT_WIDTH, CFG_ROB, CFG_INT_PRF, CFG_FP_PRF,
    CFG_DECODE, CFG_REDIRECT, CFG_BP_ENTRIES, CFG_BP_INITIAL,
    CFG_AP_ENTRIES, /* 0: no address predictor */
    CFG_AP_THRESHOLD, CFG_HIT, CFG_MISS_PENALTY,
    CFG_XOR_PENALTY, /* 0 when the XOR stage is off the critical path */
    CFG_PORTS, CFG_MSHRS, CFG_BUS_CYCLES, CFG_FORWARD_LATENCY,
    CFG_NSRC, CFG_FP_BASE, CFG_NREGS, CFG_NUNITS, N_CFG
};

/* io[] slots: [0] the cache's access clock (in/out); the rest are outputs. */
enum {
    IO_CLOCK, IO_CYCLES, IO_FORWARDED, IO_LOAD_ACCESSES, IO_MERGED,
    IO_MSHR_STALL, IO_LOAD_MISSES, IO_STORE_MISSES, IO_EVICTIONS,
    IO_BP_PREDICTIONS, IO_BP_MISPREDICTIONS, IO_AP_LOOKUPS,
    IO_AP_CONFIDENT, IO_AP_CORRECT, N_IO
};

/*
 * The sliding window of ThroughputLimiter and WindowResource
 * (repro/cpu/resources.py): the last `cap` cycles recorded, oldest at
 * `head` once full (a full window stays full).
 */
typedef struct {
    int64_t *buf, cap, head, count;
} window_t;

static inline int64_t window_earliest(const window_t *w, int64_t requested)
{
    if (w->count < w->cap)
        return requested;
    return w->buf[w->head] > requested ? w->buf[w->head] : requested;
}

static inline void window_push(window_t *w, int64_t cycle)
{
    if (w->count < w->cap) {
        w->buf[w->count++] = cycle;
    } else {
        w->buf[w->head] = cycle;
        if (++w->head == w->cap)
            w->head = 0;
    }
}

/* ThroughputLimiter.record: at most `cap` events per cycle. */
static inline int64_t limiter_record(window_t *w, int64_t requested)
{
    int64_t actual = requested;
    if (w->count == w->cap && w->buf[w->head] + 1 > actual)
        actual = w->buf[w->head] + 1;
    window_push(w, actual);
    return actual;
}

/* FunctionalUnitPool.issue: the serving unit free soonest, ties to the
 * first; fu[4 * op] = latency, repeat, first slot in units[], count. */
static inline int64_t fu_issue(const int64_t *fu, const int64_t *units,
                               int64_t *next_free, int op, int64_t now,
                               int64_t *start)
{
    const int64_t *t = fu + 4 * op;
    int64_t best = units[t[2]];
    int64_t best_start = next_free[best] > now ? next_free[best] : now;
    for (int64_t j = 1; j < t[3]; j++) {
        int64_t u = units[t[2] + j];
        int64_t s = next_free[u] > now ? next_free[u] : now;
        if (s < best_start) {
            best = u;
            best_start = s;
        }
    }
    next_free[best] = best_start + t[1];
    *start = best_start;
    return best_start + t[0];
}

/*
 * One access of the 2-way LRU write-through / no-write-allocate L1
 * (SetAssociativeCache.access_block); returns 1 on a hit.  u0/u1 are the
 * LRU stamps (the frames' last use), f0/f1 the frames' fill stamps.
 */
static inline int lru_wtna_access(int64_t b, int64_t sa, int64_t sb, int w,
                                  int64_t *t0, int64_t *t1, int64_t *u0,
                                  int64_t *u1, int64_t *f0, int64_t *f1,
                                  int64_t *io)
{
    const int64_t clock = ++io[IO_CLOCK];
    if (t0[sa] == b) {
        u0[sa] = clock;
        return 1;
    }
    if (t1[sb] == b) {
        u1[sb] = clock;
        return 1;
    }
    if (w) {
        io[IO_STORE_MISSES]++;
        return 0;
    }
    io[IO_LOAD_MISSES]++;
    if (t0[sa] >= 0 && (t1[sb] < 0 || u0[sa] > u1[sb])) {
        if (t1[sb] >= 0)
            io[IO_EVICTIONS]++;
        t1[sb] = b;
        u1[sb] = f1[sb] = clock;
    } else {
        if (t0[sa] >= 0)
            io[IO_EVICTIONS]++;
        t0[sa] = b;
        u0[sa] = f0[sa] = clock;
    }
    return 0;
}

/*
 * The whole OutOfOrderProcessor.run loop over n instructions, in program
 * order, porting repro/cpu line for line: the fetch and commit
 * ThroughputLimiters, the ROB and int/fp register-file WindowResources,
 * the FunctionalUnitPool, the bimodal branch predictor (a misprediction
 * raises the fetch floor), the stride address predictor, store
 * forwarding and DataCacheModel.load/store (ports, XOR penalty, bus,
 * <= mshrs in-flight fills with merges and MSHR stalls).
 *
 * Columns: op code, dest register (-1: none), srcs (nsrc per instruction,
 * -1 padded), address, pc, branch outcome, and per memory instruction its
 * block, its set in each way and prev_store, the latest earlier store to
 * the same address (-1: none), which replaces the store buffer's table.
 * cached[i] is set when instruction i accessed the cache (the recorded
 * stream's order is program order).  Returns 0, or -1 when out of memory.
 */
int ooo_run(int64_t n, const int64_t *cfg, const int64_t *fu,
            const int64_t *units, const int8_t *op, const int8_t *dest,
            const int8_t *srcs, const int64_t *addr, const int64_t *pc,
            const uint8_t *taken, const int64_t *blocks, const int64_t *s0,
            const int64_t *s1, const int64_t *prev_store, int64_t *t0,
            int64_t *t1, int64_t *u0, int64_t *u1, int64_t *f0,
            int64_t *f1, int64_t *io, uint8_t *cached)
{
    const int64_t nsrc = cfg[CFG_NSRC], fp_base = cfg[CFG_FP_BASE];
    const int64_t decode = cfg[CFG_DECODE], redirect = cfg[CFG_REDIRECT];
    const int64_t bp_mask = cfg[CFG_BP_ENTRIES] - 1;
    const int64_t ap_entries = cfg[CFG_AP_ENTRIES];
    const int64_t ap_mask = ap_entries - 1, ap_threshold = cfg[CFG_AP_THRESHOLD];
    const int64_t hit_time = cfg[CFG_HIT], penalty = cfg[CFG_MISS_PENALTY];
    const int64_t xor_penalty = cfg[CFG_XOR_PENALTY];
    const int64_t mshrs = cfg[CFG_MSHRS], bus_cycles = cfg[CFG_BUS_CYCLES];
    const int64_t forward_latency = cfg[CFG_FORWARD_LATENCY];
    window_t fetch = {0, cfg[CFG_FETCH_WIDTH], 0, 0};
    window_t commit = {0, cfg[CFG_COMMIT_WIDTH], 0, 0};
    window_t rob = {0, cfg[CFG_ROB], 0, 0};
    window_t int_prf = {0, cfg[CFG_INT_PRF], 0, 0};
    window_t fp_prf = {0, cfg[CFG_FP_PRF], 0, 0};
    window_t ports = {0, cfg[CFG_PORTS], 0, 0};
    int64_t *reg_ready, *next_free, *st_ready, *st_commit, *fill_block;
    int64_t *fill_ready, *ap_last, *ap_stride;
    uint8_t *bp_counter, *ap_counter;
    int64_t fetch_floor = 0, last_commit = 0, bus_free = 0, inflight = 0;
    int status = -1;

    fetch.buf = malloc(sizeof(int64_t) * fetch.cap);
    commit.buf = malloc(sizeof(int64_t) * commit.cap);
    rob.buf = malloc(sizeof(int64_t) * rob.cap);
    int_prf.buf = malloc(sizeof(int64_t) * int_prf.cap);
    fp_prf.buf = malloc(sizeof(int64_t) * fp_prf.cap);
    ports.buf = malloc(sizeof(int64_t) * ports.cap);
    reg_ready = calloc(cfg[CFG_NREGS], sizeof(int64_t));
    next_free = calloc(cfg[CFG_NUNITS], sizeof(int64_t));
    st_ready = malloc(sizeof(int64_t) * (n ? n : 1));
    st_commit = malloc(sizeof(int64_t) * (n ? n : 1));
    fill_block = malloc(sizeof(int64_t) * mshrs);
    fill_ready = malloc(sizeof(int64_t) * mshrs);
    bp_counter = malloc(cfg[CFG_BP_ENTRIES]);
    ap_last = calloc(ap_entries ? ap_entries : 1, sizeof(int64_t));
    ap_stride = calloc(ap_entries ? ap_entries : 1, sizeof(int64_t));
    ap_counter = calloc(ap_entries ? ap_entries : 1, 1);
    if (!fetch.buf || !commit.buf || !rob.buf || !int_prf.buf || !fp_prf.buf
        || !ports.buf || !reg_ready || !next_free || !st_ready || !st_commit
        || !fill_block || !fill_ready || !bp_counter || !ap_last
        || !ap_stride || !ap_counter)
        goto done;
    for (int64_t e = 0; e < cfg[CFG_BP_ENTRIES]; e++)
        bp_counter[e] = (uint8_t)cfg[CFG_BP_INITIAL];

    for (int64_t i = 0; i < n; i++) {
        const int o = op[i], d = dest[i];
        window_t *prf = d >= fp_base ? &fp_prf : &int_prf;
        int64_t fetch_cycle, dispatch, ready, start, complete;

        fetch_cycle = limiter_record(&fetch, fetch_floor);
        dispatch = window_earliest(&rob, fetch_cycle + decode);
        if (d >= 0)
            dispatch = window_earliest(prf, dispatch);
        ready = dispatch;
        for (int64_t k = 0; k < nsrc; k++) {
            const int s = srcs[i * nsrc + k];
            if (s < 0)
                break;
            if (reg_ready[s] > ready)
                ready = reg_ready[s];
        }

        complete = fu_issue(fu, units, next_free, o, ready, &start);
        if (o == OP_BRANCH) {
            /* BimodalBranchPredictor.update */
            const int64_t e = (pc[i] >> 2) & bp_mask;
            const int t = taken[i] != 0;
            io[IO_BP_PREDICTIONS]++;
            if ((bp_counter[e] >= 2) != t) {
                io[IO_BP_MISPREDICTIONS]++;
                if (complete + redirect > fetch_floor)
                    fetch_floor = complete + redirect;
            }
            if (t)
                bp_counter[e] += bp_counter[e] < 3;
            else
                bp_counter[e] -= bp_counter[e] > 0;
        } else if (o == OP_LOAD) {
            const int64_t a = addr[i], addr_done = complete;
            const int64_t j = prev_store[i];
            int predicted_ok = 0;
            if (ap_entries) {
                /* StrideAddressPredictor.predict, then .update */
                const int64_t e = (pc[i] >> 2) & ap_mask;
                const int confident = ap_counter[e] >= ap_threshold;
                const int correct = ap_last[e] + ap_stride[e] == a;
                io[IO_AP_LOOKUPS]++;
                if (confident)
                    io[IO_AP_CONFIDENT]++;
                if (correct)
                    ap_counter[e] += ap_counter[e] < 3;
                else
                    ap_counter[e] -= ap_counter[e] > 0;
                if (ap_counter[e] < 2)
                    ap_stride[e] = a - ap_last[e];
                ap_last[e] = a;
                if (confident && correct) {
                    io[IO_AP_CORRECT]++;
                    predicted_ok = 1;
                }
            }
            if (j >= 0 && st_commit[j] > addr_done) {
                /* StoreForwardingBuffer.forward */
                io[IO_FORWARDED]++;
                complete = (addr_done > st_ready[j] ? addr_done : st_ready[j])
                           + forward_latency;
            } else {
                /* DataCacheModel.load: a correct prediction starts the
                 * access with the address add and skips the XOR stage. */
                const int64_t b = blocks[i];
                int64_t access = limiter_record(
                    &ports, predicted_ok ? start : addr_done + xor_penalty);
                int64_t merged_ready = -1, kept = 0;
                int hit;
                for (int64_t f = 0; f < inflight; f++) {
                    if (fill_ready[f] <= access)
                        continue; /* the fill has completed */
                    if (fill_block[f] == b)
                        merged_ready = fill_ready[f];
                    fill_block[kept] = fill_block[f];
                    fill_ready[kept++] = fill_ready[f];
                }
                inflight = kept;
                hit = lru_wtna_access(b, s0[i], s1[i], 0, t0, t1, u0, u1,
                                      f0, f1, io);
                io[IO_LOAD_ACCESSES]++;
                cached[i] = 1;
                if (merged_ready > access) {
                    io[IO_MERGED]++;
                    ready = merged_ready > access + hit_time
                            ? merged_ready : access + hit_time;
                } else if (hit) {
                    ready = access + hit_time;
                } else {
                    int64_t issue = access, transfer;
                    while (inflight >= mshrs) {
                        /* every fill left is outstanding at `issue` */
                        int64_t earliest = fill_ready[0];
                        for (int64_t f = 1; f < inflight; f++)
                            if (fill_ready[f] < earliest)
                                earliest = fill_ready[f];
                        io[IO_MSHR_STALL] += earliest - issue;
                        issue = earliest;
                        kept = 0;
                        for (int64_t f = 0; f < inflight; f++) {
                            if (fill_ready[f] <= issue)
                                continue;
                            fill_block[kept] = fill_block[f];
                            fill_ready[kept++] = fill_ready[f];
                        }
                        inflight = kept;
                    }
                    /* Bus.reserve */
                    transfer = issue + hit_time + penalty - bus_cycles;
                    if (bus_free > transfer)
                        transfer = bus_free;
                    bus_free = transfer += bus_cycles;
                    ready = issue + hit_time + penalty;
                    if (transfer > ready)
                        ready = transfer;
                    fill_block[inflight] = b;
                    fill_ready[inflight++] = ready;
                }
                complete = predicted_ok && addr_done > ready ? addr_done
                                                              : ready;
            }
        }

        {
            const int64_t wanted = complete + 1 > last_commit ? complete + 1
                                                              : last_commit;
            last_commit = limiter_record(&commit, wanted);
        }
        window_push(&rob, last_commit);
        if (d >= 0) {
            window_push(prf, last_commit);
            reg_ready[d] = complete;
        }
        if (o == OP_STORE) {
            /* drained to the write-through cache after commit */
            lru_wtna_access(blocks[i], s0[i], s1[i], 1, t0, t1, u0, u1, f0,
                            f1, io);
            cached[i] = 1;
            st_ready[i] = complete;
            st_commit[i] = last_commit;
        }
    }
    io[IO_CYCLES] = last_commit;
    status = 0;
done:
    free(fetch.buf);
    free(commit.buf);
    free(rob.buf);
    free(int_prf.buf);
    free(fp_prf.buf);
    free(ports.buf);
    free(reg_ready);
    free(next_free);
    free(st_ready);
    free(st_commit);
    free(fill_block);
    free(fill_ready);
    free(bp_counter);
    free(ap_last);
    free(ap_stride);
    free(ap_counter);
    return status;
}
