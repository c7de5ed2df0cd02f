//! `serve-overload`: one `Server` serving tiny BERT and tiny LSTM, both
//! registered with a symbolic sequence length, under an open loop at a
//! fixed absolute rate above its capacity.
//!
//! All traffic is fixed in absolute terms and generated from the seed in
//! set-up: Poisson arrivals at [`RATE_RPS`], a 50/50 model mix,
//! and a lognormal sequence length clamped to each model's declared
//! bounds. Nothing is calibrated against the code under test. The shape
//! cache is warmed in set-up, so the timed window serves without
//! compiling.
//!
//! The benchmark drives the open loop itself: each request is timed from
//! its *scheduled* send time, the generator's lateness is recorded, and
//! rejections and failures are counted instead of aborting. Every response
//! must be bit-identical to the interpreter's output on the untransformed
//! program at the request's exact sequence length.

use crate::metrics::Outcome;
use crate::stats::{median, tail, windowed_tail};
use crate::{bit_identical, timed_setup, Args};
use souffle::frontend::{dyn_seq_spec, Model, ModelConfig};
use souffle::te::interp::{eval_program, random_bindings};
use souffle::te::sym::DynSpec;
use souffle::te::{TeProgram, TensorId, TensorKind};
use souffle::tensor::Tensor;
use souffle_serve::{
    Response, ResponseHandle, ServeOptions, Server, ServerBuilder, ServerStats, Submit,
};
use souffle_testkit::Rng;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, more than four times the server's capacity on the
/// reference machine (a 2-vCPU VM, about 1000 req/s), so the server stays
/// saturated even after a large speed-up.
const RATE_RPS: f64 = 5000.0;

/// Lognormal sequence length, `exp(N(MU, SIGMA))` rounded and clamped
/// into each model's declared `[1, max]` (median about 3).
const SEQ_MU: f64 = 1.1;
const SEQ_SIGMA: f64 = 0.6;

/// Distinct input sets per `(model, seq)`.
const INPUTS_PER_SHAPE: usize = 4;

/// Set-ups before and after the timed window, each starting a server and
/// warming its shape cache; `setup_s` is their median.
const SETUPS: (usize, usize) = (5, 4);

/// Requests per window of `tail_ms`: p98 with exactly ten beyond it in
/// each window.
const TAIL_WINDOW: usize = 500;

/// Latency limit of `serve.slo_share`, from the scheduled send time.
const SLO_MS: f64 = 50.0;

/// The served models, by name, chosen 50/50 per request.
const MODELS: [(Model, &str); 2] = [(Model::Bert, "bert"), (Model::Lstm, "lstm")];

fn serve_options() -> ServeOptions {
    ServeOptions {
        queue_capacity: 32,
        max_batch: 8,
        batch_deadline_ns: 1_000_000,
        workers: 1,
        buckets: vec![1, 2, 4, 8],
        shape_cache_capacity: None,
    }
}

type Bindings = HashMap<TensorId, Tensor>;

/// One served model: its spec, max-length interface, weights by name, and
/// the pre-generated input sets per sequence length.
struct Rig {
    name: &'static str,
    spec: DynSpec,
    iface: TeProgram,
    max_seq: i64,
    weights: HashMap<String, Tensor>,
    /// `inputs[s][k]`: input set `k` at sequence length `s` (index 0 unused).
    inputs: Vec<Vec<Bindings>>,
}

impl Rig {
    fn new(model: Model, name: &'static str, rng: &mut Rng) -> Rig {
        let spec = dyn_seq_spec(model, ModelConfig::Tiny).expect("served models are dynamic");
        let iface = spec.at(&spec.table.max_binding());
        let sym = spec.table.ids().next().expect("one symbolic dim");
        let (_, max_seq) = spec.table.bounds(sym);
        let weights = random_bindings(&iface, rng.next_u64())
            .into_iter()
            .filter(|(id, _)| iface.tensor(*id).kind == TensorKind::Weight)
            .map(|(id, t)| (iface.tensor(id).name.clone(), t))
            .collect();
        let mut rig = Rig {
            name,
            spec,
            iface,
            max_seq,
            weights,
            inputs: Vec::new(),
        };
        rig.inputs = (0..=max_seq)
            .map(|s| {
                let sets = if s == 0 { 0 } else { INPUTS_PER_SHAPE };
                (0..sets).map(|_| rig.request_at(s, rng)).collect()
            })
            .collect();
        rig
    }

    fn program_at(&self, s: i64) -> TeProgram {
        self.spec
            .at(&self.spec.table.bind(vec![s]).expect("seq within bounds"))
    }

    /// Random request inputs at exact length `s`: every interface input
    /// that exists at `s`, shaped as in the exact-length program.
    fn request_at(&self, s: i64, rng: &mut Rng) -> Bindings {
        let p_s = self.program_at(s);
        let shape_at_s: HashMap<&str, _> = p_s
            .tensors()
            .iter()
            .map(|t| (t.name.as_str(), t.shape.clone()))
            .collect();
        let mut out = HashMap::new();
        for id in self.iface.free_tensors() {
            let info = self.iface.tensor(id);
            if info.kind == TensorKind::Weight || self.spec.is_derived_name(&info.name) {
                continue;
            }
            if let Some((_, t)) = self.spec.per_step_index(&info.name) {
                if t >= s {
                    continue;
                }
            }
            let shape = shape_at_s[info.name.as_str()].clone();
            out.insert(
                id,
                Tensor::random(shape, rng.next_u64()).with_dtype(info.dtype),
            );
        }
        out
    }

    /// The interpreter's outputs on the untransformed program at exact
    /// length `s`, keyed by interface output id.
    fn reference(&self, s: i64, request: &Bindings) -> Bindings {
        let p_s = self.program_at(s);
        let binding = self.spec.table.bind(vec![s]).expect("seq within bounds");
        let by_name: HashMap<&str, &Tensor> = request
            .iter()
            .map(|(id, t)| (self.iface.tensor(*id).name.as_str(), t))
            .collect();
        let bindings: Bindings = p_s
            .free_tensors()
            .into_iter()
            .map(|id| {
                let info = p_s.tensor(id);
                let t = if info.kind == TensorKind::Weight {
                    self.weights[&info.name].clone()
                } else if self.spec.is_derived_name(&info.name) {
                    self.spec
                        .derived_tensor(&info.name, &info.shape, &binding)
                        .expect("derived input")
                        .with_dtype(info.dtype)
                } else {
                    (*by_name[info.name.as_str()]).clone()
                };
                (id, t)
            })
            .collect();
        let outs = eval_program(&p_s, &bindings).expect("reference interpreter");
        p_s.outputs()
            .iter()
            .zip(self.iface.outputs())
            .map(|(r, i)| (i, outs[r].clone()))
            .collect()
    }

    fn sample_seq(&self, rng: &mut Rng) -> i64 {
        let u1 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let len = (SEQ_MU + SEQ_SIGMA * z).exp().round() as i64;
        len.clamp(1, self.max_seq)
    }
}

/// One scheduled request.
struct Request {
    /// Send time, from the start of the window.
    at: Duration,
    model: usize,
    seq: i64,
    /// Index into the model's input sets at `seq`.
    set: usize,
    inputs: Bindings,
}

struct Setup {
    rigs: Vec<Rig>,
    server: Server,
    requests: Vec<Request>,
}

fn start_server(rigs: &[Rig]) -> Server {
    rigs.iter()
        .fold(ServerBuilder::new(serve_options()), |b, r| {
            b.register_dyn(r.name, r.spec.clone(), r.weights.clone())
        })
        .start()
}

/// Compiles every `(batch bucket, seq bucket)` variant by sending full
/// bursts of each size at each sequence bucket, until the caches hold all.
fn warm(server: &Server, rigs: &[Rig]) -> Result<(), String> {
    let buckets = serve_options().buckets;
    for _ in 0..5 {
        let mut complete = true;
        for r in rigs {
            let seqs = server.seq_buckets(r.name).expect("registered");
            for &s in &seqs {
                for &b in &buckets {
                    let handles: Vec<_> = (0..b)
                        .map(|k| {
                            server
                                .submit(r.name, r.inputs[s as usize][k % INPUTS_PER_SHAPE].clone())
                        })
                        .collect();
                    for h in handles {
                        if let Submit::Accepted(h) = h {
                            h.wait().map_err(|e| format!("warm-up request: {e}"))?;
                        }
                    }
                }
            }
            complete &= server.cached_variants(r.name) == Some(seqs.len() * buckets.len());
        }
        if complete {
            return Ok(());
        }
    }
    Err("shape cache did not reach every bucket variant".into())
}

/// Poisson arrivals at `rate` over `window`, each with a model, a length
/// and an input set drawn from `rng`.
fn schedule(rigs: &[Rig], rate: f64, window: Duration, rng: &mut Rng) -> Vec<Request> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        let model = rng.below(rigs.len() as u64) as usize;
        let seq = rigs[model].sample_seq(rng);
        let set = rng.below(INPUTS_PER_SHAPE as u64) as usize;
        out.push(Request {
            at: Duration::from_secs_f64(t),
            model,
            seq,
            set,
            inputs: rigs[model].inputs[seq as usize][set].clone(),
        });
    }
}

fn setup(args: &Args) -> Result<Setup, String> {
    let mut rng = Rng::new(args.seed);
    let rigs: Vec<Rig> = MODELS
        .iter()
        .map(|&(m, name)| Rig::new(m, name, &mut rng))
        .collect();
    let server = start_server(&rigs);
    warm(&server, &rigs)?;
    let requests = schedule(&rigs, RATE_RPS, args.budget(), &mut rng);
    Ok(Setup {
        rigs,
        server,
        requests,
    })
}

/// What became of one sent request.
struct Sent {
    index: usize,
    /// Send time minus scheduled time.
    lateness: Duration,
    /// Duration of the `submit` call, when timed.
    submit: Option<Duration>,
    result: Result<Response, String>,
}

/// Sends every request at its scheduled time from this thread while a
/// second thread collects the responses. Returns the admitted requests'
/// outcomes and the number rejected.
fn drive(server: &Server, requests: Vec<Request>, time_submits: bool) -> (Vec<Sent>, u64) {
    let (tx, rx) = mpsc::channel::<(
        usize,
        Duration,
        Option<Duration>,
        Result<ResponseHandle, String>,
    )>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(index, lateness, submit, handle)| Sent {
                    index,
                    lateness,
                    submit,
                    result: handle.and_then(|h| h.wait().map_err(|e| e.to_string())),
                })
                .collect::<Vec<_>>()
        });
        let mut rejected = 0;
        let epoch = Instant::now();
        for (index, r) in requests.into_iter().enumerate() {
            let due = epoch + r.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let lateness = sent.saturating_duration_since(due);
            let outcome = server.submit(MODELS[r.model].1, r.inputs);
            let submit = (time_submits && index % 2 == 0).then(|| sent.elapsed());
            let handle = match outcome {
                Submit::Accepted(h) => Ok(h),
                Submit::Rejected => {
                    rejected += 1;
                    continue;
                }
                other => Err(format!("refused: {other:?}")),
            };
            tx.send((index, lateness, submit, handle))
                .expect("collector alive");
        }
        drop(tx);
        let sent = collector.join().expect("collector thread");
        (sent, rejected)
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (ready, mut setup_times) = timed_setup(SETUPS.0, || setup(args));
    let ready = match ready {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    if args.trace {
        let t0 = Instant::now();
        for (m, _) in MODELS {
            dyn_seq_spec(m, ModelConfig::Tiny);
        }
        out.set("frontend.build_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    let Setup {
        rigs,
        server,
        requests,
    } = ready;

    // The reference oracle, once per distinct input set.
    let references: Vec<Vec<Vec<Bindings>>> = rigs
        .iter()
        .map(|r| {
            r.inputs
                .iter()
                .enumerate()
                .map(|(s, sets)| sets.iter().map(|b| r.reference(s as i64, b)).collect())
                .collect()
        })
        .collect();
    let meta: Vec<(usize, i64, usize, Duration)> = requests
        .iter()
        .map(|r| (r.model, r.seq, r.set, r.at))
        .collect();
    let sent_count = requests.len() as u64;

    let before = server.stats();
    let (sent, rejected) = drive(&server, requests, args.trace);
    let after = server.stats();
    let variants: usize = rigs
        .iter()
        .map(|r| server.cached_variants(r.name).unwrap_or(0))
        .sum();
    server.shutdown();
    setup_times.extend(timed_setup(SETUPS.1, || setup(args)).1);
    out.set("setup_s", median(&setup_times));

    out.attempted = sent_count;
    let mut latencies = Vec::new();
    let mut by_send = Vec::new();
    let mut timed_lat = Vec::new();
    let mut untimed_lat = Vec::new();
    let mut within_slo = 0u64;
    let mut end_s: f64 = 0.0;
    let (mut queue, mut exec, mut post, mut submit_us, mut lateness) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in &sent {
        let (model, seq, set, at) = meta[s.index];
        lateness.push(s.lateness.as_secs_f64() * 1e3);
        let resp = match &s.result {
            Ok(r) if bit_identical(&references[model][seq as usize][set], &r.outputs) => r,
            Ok(_) => {
                out.failed += 1;
                println!(
                    "request {} ({} seq {seq}) differs from the reference",
                    s.index, MODELS[model].1
                );
                continue;
            }
            Err(e) => {
                out.failed += 1;
                println!("request {} failed: {e}", s.index);
                continue;
            }
        };
        let served = resp.completed_ns.saturating_sub(resp.submitted_ns);
        let latency = s.lateness.as_secs_f64() * 1e3 + ms(served);
        latencies.push(latency);
        by_send.push((at.as_secs_f64(), latency));
        if latency <= SLO_MS {
            within_slo += 1;
        }
        end_s = end_s.max(at.as_secs_f64() + latency / 1e3);
        queue.push(ms(resp.queue_ns));
        exec.push(ms(resp.exec_ns));
        post.push(ms(served.saturating_sub(resp.queue_ns + resp.exec_ns)));
        match s.submit {
            Some(d) => {
                submit_us.push(d.as_secs_f64() * 1e6);
                timed_lat.push(latency);
            }
            None => untimed_lat.push(latency),
        }
    }

    let completed = latencies.len();
    println!(
        "offered {:.0} req/s: sent {sent_count}, rejected {rejected}, completed {completed}, failed {} in {end_s:.2} s",
        RATE_RPS, out.failed
    );
    if completed == 0 {
        out.check(false, || "no request completed".into());
        return out;
    }
    out.set("throughput_per_s", completed as f64 / end_s);
    out.set("median_ms", median(&latencies));
    match windowed_tail(&by_send, TAIL_WINDOW) {
        Some((pct, v, windows)) => {
            println!(
                "latency from scheduled send: p50 {:.3} ms over {completed} requests; \
                 p{pct} {v:.3} ms (median over {windows} windows of {TAIL_WINDOW} requests)",
                median(&latencies)
            );
            out.set("tail_ms", v);
        }
        None => out.check(false, || {
            format!("{completed} requests: too few for a tail")
        }),
    }
    let d = delta(&before, &after);
    let slots = d.real + d.padded;
    println!(
        "batches {}: mean {:.2}, size flushes {:.1} %, padding {:.1} %, {variants} cached variants",
        d.batches,
        d.real as f64 / d.batches.max(1) as f64,
        100.0 * d.size_flushes as f64 / d.batches.max(1) as f64,
        100.0 * d.padded as f64 / slots.max(1) as f64,
    );
    if args.trace {
        out.set("serve.queue_ms", median(&queue));
        out.set("serve.exec_ms", median(&exec));
        out.set("serve.post_ms", median(&post));
        if !submit_us.is_empty() {
            out.set("serve.submit_us", median(&submit_us));
        }
        out.set("serve.mean_batch", d.real as f64 / d.batches.max(1) as f64);
        out.set(
            "serve.size_flush_share",
            d.size_flushes as f64 / d.batches.max(1) as f64,
        );
        out.set("serve.padding_waste", d.padded as f64 / slots.max(1) as f64);
        out.set("serve.cache_variants", variants as f64);
        out.set(
            "serve.gen_lateness_ms",
            tail(&lateness).map_or_else(|| median(&lateness), |(_, v)| v),
        );
        out.set("serve.rejected_share", rejected as f64 / sent_count as f64);
        out.set("serve.slo_share", within_slo as f64 / sent_count as f64);
        if !timed_lat.is_empty() && !untimed_lat.is_empty() {
            let pct = (median(&timed_lat) / median(&untimed_lat) - 1.0) * 100.0;
            out.set("souffle.trace_overhead_pct", pct);
        }
    }
    out
}

/// Server counters accrued between two snapshots.
struct Delta {
    batches: u64,
    size_flushes: u64,
    padded: u64,
    real: u64,
}

fn delta(before: &ServerStats, after: &ServerStats) -> Delta {
    let real = |s: &ServerStats| -> u64 {
        s.batch_hist
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum()
    };
    Delta {
        batches: after.batches - before.batches,
        size_flushes: after.size_flushes - before.size_flushes,
        padded: after.padded_slots - before.padded_slots,
        real: real(after) - real(before),
    }
}
