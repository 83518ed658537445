//! `serve-zipf`: one client submitting a Zipf-distributed stream of
//! generated programs to the default `bgserve` server.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use bench::report::peak_rss_bytes;
use bgcheck::program::{generate, Program};
use bgcheck::runner::{run_mode, CheckKernel, MODES};
use bgserve::proto::{submit_line, u64_field};
use bgserve::{spawn, CachedResult, Client, Endpoint, JobKey, ResultCache, ServeOpts};

use crate::spans::SpanLog;
use crate::stats::{median, rss_kb, splitmix64};
use crate::{Bench, Checks, Metrics, PassKind, PassOut};

/// Distinct programs the stream draws from: far more than the cache
/// holds, so misses are both cold and capacity misses.
const POOL: usize = 4096;
/// Zipf exponent of the draw over the pool.
const ZIPF_S: f64 = 0.8;
/// Submissions per pass.
const SUBMISSIONS: usize = 1000;
/// Seed of the rank draws. It is fixed, so every `--seed` sees the
/// same popularity ranks and hit pattern: 275 of the 1,000 submissions
/// hit.
const RANK_SEED: u64 = 0x21F0;
/// `setup_s` is the median over blocks of the mean start-up in a block
/// of back-to-back start-ups: a single start-up is a fraction of a
/// millisecond of thread wake-ups and does not repeat.
const SETUP_BLOCKS: usize = 15;
const SETUP_BLOCK: usize = 32;

type Triple = (String, u64, u64);

/// What the server answered to one submission.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Reply {
    triple: Triple,
    cached: bool,
}

pub struct ServeBench {
    /// The submission stream: (pool index, kernel).
    seq: Vec<(usize, CheckKernel)>,
    programs: HashMap<usize, Program>,
    dir: PathBuf,
    started: usize,
    tamper: bool,
    setup_samples: Vec<f64>,
    /// Replies of every pass, and the server's `cache_hits` for it.
    replies: Vec<Vec<Option<Reply>>>,
    status_hits: Vec<u64>,
    /// Client-side round trips and RSS growth of the traced passes.
    hit_rtt: Vec<f64>,
    miss_rtt: Vec<f64>,
    rss_kb_per_job: Vec<f64>,
    layer: Vec<(&'static str, f64, &'static str)>,
}

impl ServeBench {
    pub fn new(seed: u64, tamper: bool) -> ServeBench {
        // Ranks are i.i.d. Zipf draws from a fixed stream; the seed
        // picks which generated program sits at each rank. Kernels
        // alternate over the pool, so each program runs on one kernel.
        let pool_base = splitmix64(seed);
        let cdf: Vec<f64> = (1..=POOL)
            .scan(0.0, |acc, k| {
                *acc += 1.0 / (k as f64).powf(ZIPF_S);
                Some(*acc)
            })
            .collect();
        let total = cdf[POOL - 1];
        let seq: Vec<(usize, CheckKernel)> = (0..SUBMISSIONS)
            .map(|i| {
                let r = splitmix64(RANK_SEED.wrapping_add(i as u64));
                let u = (r >> 11) as f64 / (1u64 << 53) as f64 * total;
                let idx = cdf.partition_point(|&c| c <= u).min(POOL - 1);
                (idx, CheckKernel::ALL[idx % 2])
            })
            .collect();
        let programs = seq
            .iter()
            .map(|&(idx, _)| (idx, generate(pool_base.wrapping_add(idx as u64))))
            .collect();
        ServeBench {
            seq,
            programs,
            dir: PathBuf::from(".bench_run"),
            started: 0,
            tamper,
            setup_samples: Vec::new(),
            replies: Vec::new(),
            status_hits: Vec::new(),
            hit_rtt: Vec::new(),
            miss_rtt: Vec::new(),
            rss_kb_per_job: Vec::new(),
            layer: Vec::new(),
        }
    }

    /// Start a default server and connect to it; the first `ping` is
    /// answered when this returns.
    fn start(&mut self) -> Result<(bgserve::ServerHandle, Client), String> {
        self.started += 1;
        let sock = self.dir.join(format!(
            "serve-{}-{}.sock",
            std::process::id(),
            self.started
        ));
        let handle = spawn(ServeOpts::new(Endpoint::Unix(sock)))?;
        let mut client = Client::connect(handle.endpoint())?;
        client.ping()?;
        Ok((handle, client))
    }

    /// Time one block of back-to-back start-ups; return the mean.
    fn setup_block(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let servers = (0..SETUP_BLOCK)
            .map(|_| self.start())
            .collect::<Result<Vec<_>, String>>()?;
        let mean = t.elapsed().as_secs_f64() / SETUP_BLOCK as f64;
        for (h, c) in servers {
            stop(h, c)?;
        }
        Ok(mean)
    }
}

fn stop(handle: bgserve::ServerHandle, client: Client) -> Result<(), String> {
    drop(client);
    handle.shutdown()
}

impl Bench for ServeBench {
    fn pass_s(&self) -> f64 {
        4.5
    }

    fn prepare(&mut self, checks: &mut Checks, _spans: &mut SpanLog) {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            checks.op(false, || format!("{}: {e}", self.dir.display()));
            return;
        }
        for _ in 0..SETUP_BLOCKS {
            match self.setup_block() {
                Ok(mean) => self.setup_samples.push(mean),
                Err(e) => checks.op(false, || format!("server start-up: {e}")),
            }
        }
    }

    fn pass(&mut self, kind: PassKind, checks: &mut Checks, spans: &mut SpanLog) -> PassOut {
        let (handle, mut client) = match self.start() {
            Ok(s) => s,
            Err(e) => {
                checks.op(false, || format!("server start-up: {e}"));
                return PassOut::default();
            }
        };
        let pass_span = spans.open("pass");
        let rss0 = rss_kb();
        let t0 = Instant::now();
        let mut jobs = Vec::with_capacity(self.seq.len());
        let mut replies = Vec::with_capacity(self.seq.len());
        for &(idx, kernel) in &self.seq {
            let t = Instant::now();
            let r = client.submit(kernel, MODES[0], &self.programs[&idx]);
            let done = Instant::now();
            spans.record("serve.submit", pass_span, t, done);
            let rtt = (done - t).as_secs_f64();
            jobs.push(rtt);
            match r {
                Ok(jr) => {
                    checks.op(jr.warnings.is_empty(), || {
                        format!("program {idx}: server reported {:?}", jr.warnings)
                    });
                    if kind == PassKind::Traced {
                        if jr.cached {
                            &mut self.hit_rtt
                        } else {
                            &mut self.miss_rtt
                        }
                        .push(rtt);
                    }
                    replies.push(Some(Reply {
                        triple: jr.triple(),
                        cached: jr.cached,
                    }));
                }
                Err(e) => {
                    checks.op(false, || format!("submission refused: {e}"));
                    replies.push(None);
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        spans.close(pass_span, t0, Instant::now());
        let cached = replies.iter().flatten().filter(|r| r.cached).count();
        eprintln!(
            "{kind:?} pass: stream {wall_s:.4} s, {cached} cached, peak RSS {} kB",
            peak_rss_bytes() / 1024
        );
        if kind == PassKind::Traced {
            let grown = rss_kb().saturating_sub(rss0) as f64;
            self.rss_kb_per_job.push(grown / self.seq.len() as f64);
        }
        match client.status().and_then(|s| u64_field(&s, "cache_hits")) {
            Ok(h) => self.status_hits.push(h),
            Err(e) => checks.op(false, || format!("status: {e}")),
        }
        if let Err(e) = stop(handle, client) {
            checks.op(false, || format!("server shutdown: {e}"));
        }
        self.replies.push(replies);
        PassOut {
            wall_s,
            jobs,
            ..PassOut::default()
        }
    }

    /// Check every reply against an in-process run of its job, and
    /// replay the stream through the cache the server uses.
    fn finish(&mut self, checks: &mut Checks, _spans: &mut SpanLog) {
        let mut oracle: HashMap<(usize, &'static str), Triple> = HashMap::new();
        let mut run_ms = Vec::new();
        for &(idx, kernel) in &self.seq {
            if oracle.contains_key(&(idx, kernel.label())) {
                continue;
            }
            let t = Instant::now();
            match run_mode(&self.programs[&idx], kernel, MODES[0]) {
                Ok(rec) => {
                    run_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let mut triple = rec.triple();
                    if self.tamper && oracle.is_empty() {
                        triple.2 ^= 1;
                    }
                    oracle.insert((idx, kernel.label()), triple);
                }
                Err(e) => checks.op(false, || format!("oracle run: {e}")),
            }
        }
        for (pass, replies) in self.replies.iter().enumerate() {
            for (r, &(idx, kernel)) in replies.iter().zip(&self.seq) {
                if let (Some(r), Some(want)) = (r, oracle.get(&(idx, kernel.label()))) {
                    checks.op(r.triple == *want, || {
                        format!(
                            "pass {pass}: program {idx} on {} returned {:?} (cached {}), \
                             in-process run gives {want:?}",
                            kernel.label(),
                            r.triple,
                            r.cached
                        )
                    });
                }
            }
            checks.op(*replies == self.replies[0], || {
                format!("pass {pass} did not repeat the first pass's replies")
            });
        }

        // Replay: the stream's keys through a cache of the server's size.
        let cap = ServeOpts::new(Endpoint::Unix(PathBuf::new())).cache_cap;
        let mut cache = ResultCache::new(cap, None);
        let (mut key_s, mut get_s, mut insert_s, mut encode_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut hits, mut inserts) = (0u64, 0u64);
        for &(idx, kernel) in &self.seq {
            let p = &self.programs[&idx];
            let t = Instant::now();
            let line = submit_line(kernel, MODES[0], p);
            let t_enc = Instant::now();
            let kd = JobKey::of(kernel, p).digest();
            let t_key = Instant::now();
            let hit = cache.get(kd).is_some();
            let t_get = Instant::now();
            std::hint::black_box(line);
            encode_s += (t_enc - t).as_secs_f64();
            key_s += (t_key - t_enc).as_secs_f64();
            get_s += (t_get - t_key).as_secs_f64();
            if hit {
                hits += 1;
                continue;
            }
            let Some((outcome, final_cycle, digest)) = oracle.get(&(idx, kernel.label())).cloned()
            else {
                continue;
            };
            let entry = CachedResult {
                kernel: kernel.label().to_string(),
                mode: MODES[0].label(),
                outcome,
                final_cycle,
                digest,
                coverage: 0,
                profile: None,
            };
            let t = Instant::now();
            cache.insert(kd, entry);
            insert_s += t.elapsed().as_secs_f64();
            inserts += 1;
        }
        for (pass, (replies, &status)) in self.replies.iter().zip(&self.status_hits).enumerate() {
            let cached = replies.iter().flatten().filter(|r| r.cached).count() as u64;
            checks.op(status == hits && cached == hits, || {
                format!(
                    "pass {pass}: server counted {status} cache hits and sent {cached} cached \
                     replies; replaying the stream through ResultCache gives {hits}"
                )
            });
        }

        let n = self.seq.len() as f64;
        let misses = n - hits as f64;
        let hit_rtt = median(&self.hit_rtt) * 1e3;
        let miss_rtt = median(&self.miss_rtt) * 1e3;
        let run_mode_ms = median(&run_ms);
        self.layer = vec![
            ("serve.miss_rtt_ms", miss_rtt, "ms"),
            ("serve.hit_rtt_ms", hit_rtt, "ms"),
            (
                "serve.queue_wait_ms",
                miss_rtt - run_mode_ms - hit_rtt,
                "ms",
            ),
            ("serve.cache_hits", hits as f64, "count"),
            ("serve.cache_misses", misses, "count"),
            ("serve.hit_ratio", hits as f64 / n, "ratio"),
            ("serve.cache_lookup_us", get_s / n * 1e6, "us"),
            (
                "serve.cache_insert_us",
                insert_s / inserts.max(1) as f64 * 1e6,
                "us",
            ),
            ("serve.key_us", key_s / n * 1e6, "us"),
            ("serve.encode_us", encode_s / n * 1e6, "us"),
            ("serve.rss_kb_per_job", median(&self.rss_kb_per_job), "kB"),
            ("bgcheck.run_mode_ms", run_mode_ms, "ms"),
        ];
        let _ = std::fs::remove_dir(&self.dir);
    }

    fn setup_samples(&self) -> Vec<f64> {
        self.setup_samples.clone()
    }

    fn has_twin(&self) -> bool {
        false
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        for &(name, v, unit) in &self.layer {
            m.put(name, v, unit);
        }
    }
}
