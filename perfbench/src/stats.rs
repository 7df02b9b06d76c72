//! Small statistics and process helpers shared by the workloads.

use std::time::{Duration, Instant};

use br_workloads::rng::SmallRng;
use br_workloads::InputSpec;

/// Linear-interpolated quantile `q` (0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run `setup` `times` times from scratch and keep the last state; the
/// set-up time reported is the median, so one slow set-up (a page-cache
/// miss, a noisy neighbour) does not move `setup_s`.
pub fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        let state = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((median(&secs), last.expect("at least one set-up")))
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Derive an input-generator seed from the run's `--seed` and a fixed
/// per-input salt, so every input of a run changes with the seed and
/// none collide.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// `spec`'s distribution with a seed derived from the run's seed.
pub fn reseed(spec: InputSpec, seed: u64, salt: u64) -> InputSpec {
    InputSpec::new(spec.kind, derive(seed, spec.seed ^ salt << 32))
}

/// Reference kernel slices per pass of a workload.
pub const SLICES_PER_PASS: usize = 8;

/// What `SLICES_PER_PASS` slices of the reference kernel take, in ms, on
/// an unloaded 2-core Xeon at 2.0 GHz: a normalised time reads as
/// milliseconds on a machine that runs the kernel at that speed.
pub const REF_NOMINAL_MS: f64 = 30.0;

/// A fixed reference kernel that uses none of the repository's code: a
/// byte-coded dispatch loop over 4 KiB of code with data-dependent
/// branches and a 128 KiB data array, run in short slices between a
/// workload's operations. On a shared machine the CPU speed a run gets
/// drifts over minutes with the neighbours' load; dividing each pass's
/// operation times by the slices run among them cancels most of that
/// drift, while the work an operation does still shows. A pointer chase
/// and a hash-map kernel tracked the drift less well than this loop.
pub struct Reference {
    code: Vec<u8>,
    data: Vec<i64>,
    acc: i64,
    pc: usize,
    sp: usize,
    /// Slice times of the current pass, ms.
    slices: Vec<f64>,
    /// Median slice time of each finished pass, ms.
    pub per_pass: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        Reference {
            code: (0..4096).map(|_| (rng.next_u64() % 8) as u8).collect(),
            data: (0..16384).collect(),
            acc: 0,
            pc: 0,
            sp: 0,
            slices: Vec::new(),
            per_pass: Vec::new(),
        }
    }

    /// Run one slice (375,000 dispatches, a few ms) and record its time.
    pub fn slice(&mut self) {
        let t = Instant::now();
        let (code, data) = (&self.code, &mut self.data);
        let (mut acc, mut pc, mut sp) = (self.acc, self.pc, self.sp);
        for _ in 0..375_000 {
            match code[pc] {
                0 => acc = acc.wrapping_add(data[sp]),
                1 => acc ^= acc >> 3,
                2 => {
                    sp = (sp + 1) & 16383;
                    data[sp] = acc;
                }
                3 => sp = (acc as usize) & 16383,
                4 => {
                    if acc & 1 == 0 {
                        pc = (pc + 7) & 4095;
                    }
                }
                5 => acc = acc.wrapping_mul(31),
                6 => acc = acc.wrapping_sub(data[(sp * 7) & 16383]),
                _ => acc = acc.rotate_left(5),
            }
            pc = (pc + 1) & 4095;
        }
        (self.acc, self.pc, self.sp) = (std::hint::black_box(acc), pc, sp);
        self.slices.push(ms(t.elapsed()));
    }

    /// Run a slice before operation `i` of a pass of `pass_len`, so a
    /// pass holds `SLICES_PER_PASS` slices spread over it.
    pub fn before_op(&mut self, i: usize, pass_len: usize) {
        if i.is_multiple_of(pass_len.div_ceil(SLICES_PER_PASS)) {
            self.slice();
        }
    }

    /// Close the current pass.
    pub fn end_pass(&mut self) {
        if !self.slices.is_empty() {
            self.per_pass.push(median(&self.slices));
            self.slices.clear();
        }
    }
}

/// Quantile `q` of the operation times of every whole pass of
/// `pass_len` samples, each divided by the median reference slice of its
/// pass (`slice_ms`, one per pass) and scaled so that a kernel at
/// `REF_NOMINAL_MS` leaves times unchanged.
pub fn normalised(samples: &[f64], pass_len: usize, slice_ms: &[f64], q: f64) -> f64 {
    let per_op: Vec<f64> = samples
        .chunks_exact(pass_len)
        .zip(slice_ms)
        .flat_map(|(pass, r)| {
            let kernel = r * SLICES_PER_PASS as f64;
            pass.iter().map(move |t| t / kernel * REF_NOMINAL_MS)
        })
        .collect();
    quantile(&per_op, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
