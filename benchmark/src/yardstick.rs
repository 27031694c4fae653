//! A fixed reference workload timed between the measured operations.
//!
//! The shared host this benchmark runs on changes speed by up to 2x
//! from one minute to the next: one build's wide-vocabulary fit took
//! 3.4 s in one run and 6.0 s in another. Every gated time is therefore
//! read at a fixed host speed: each sample is scaled by [`NOMINAL_SECS`]
//! over the yardstick's time measured just before or after it (see
//! [`factors`]).
//!
//! The yardstick does on both cores what the workloads do: arithmetic in
//! registers, a pointer chase through 64 MB, a Gibbs-style sampling
//! sweep over a 60k × 50 count plane, and small frames echoed over
//! loopback TCP. None of it calls the repository's code, so no change to
//! the program moves it. It runs in a child process of its own, so its
//! buffers stay out of the workload's `peak_rss_mb`; between readings it
//! waits on a pipe and uses no CPU.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// The yardstick's time on the 2-vCPU VM the bounds were set on, while
/// the host was quiet. An adjusted time reads as the time that host
/// would have taken at that speed; the constant cancels out of every
/// comparison between two commits.
pub const NOMINAL_SECS: f64 = 0.050;

const THREADS: u64 = 2;
const ALU_STEPS: u64 = 3_000_000;
/// Slots of the chase cycle: 64 MB of `u32`, beyond a core's L2 and a
/// fair share of the shared L3.
const CHASE_SLOTS: usize = 16 << 20;
const CHASE_STEPS: usize = 100_000;
const VOCAB: usize = 60_000;
const TOPICS: usize = 50;
const TOKENS: usize = 200_000;
const DOC_TOKENS: usize = 20;
const ECHOES: usize = 200;
const FRAME: usize = 1024;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed inputs of every part, built once per process.
struct Parts {
    /// A single random cycle through every slot.
    cycle: Vec<u32>,
    /// Word-topic counts, row-major by word.
    plane: Vec<u32>,
    /// `1 / (n_z + V·β)` per topic.
    inv_topic: Vec<f64>,
    /// Token word ids, skewed towards low ids like a Zipf vocabulary.
    words: Vec<u32>,
}

impl Parts {
    fn new() -> Parts {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut cycle = vec![0u32; CHASE_SLOTS];
        for (k, &slot) in order.iter().enumerate() {
            cycle[slot as usize] = order[(k + 1) % CHASE_SLOTS];
        }
        let plane: Vec<u32> = (0..VOCAB * TOPICS)
            .map(|_| {
                let r = xorshift(&mut x);
                if r.is_multiple_of(8) {
                    (r >> 40) as u32 % 20
                } else {
                    0
                }
            })
            .collect();
        let mut per_topic = vec![0u64; TOPICS];
        for (i, &c) in plane.iter().enumerate() {
            per_topic[i % TOPICS] += u64::from(c);
        }
        let inv_topic = per_topic
            .iter()
            .map(|&c| 1.0 / (c as f64 + VOCAB as f64 * 0.01))
            .collect();
        let words = (0..TOKENS)
            .map(|_| {
                let r = xorshift(&mut x) % VOCAB as u64;
                (r * r / VOCAB as u64) as u32
            })
            .collect();
        Parts {
            cycle,
            plane,
            inv_topic,
            words,
        }
    }

    /// Seconds `work` takes on [`THREADS`] threads, thread `t` given `t`.
    fn on_both(work: impl Fn(u64) -> u64 + Sync) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let work = &work;
                s.spawn(move || std::hint::black_box(work(t)));
            }
        });
        t0.elapsed().as_secs_f64()
    }

    fn alu(t: u64) -> u64 {
        let mut x = 0xD6E8_FEB8_6659_FD93 ^ t;
        let mut sum = 0u64;
        for _ in 0..ALU_STEPS {
            sum = sum.wrapping_add(xorshift(&mut x).wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        sum
    }

    fn chase(&self, t: u64) -> u64 {
        let mut i = (t as usize * CHASE_SLOTS / THREADS as usize) as u32;
        for _ in 0..CHASE_STEPS {
            i = self.cycle[i as usize];
        }
        u64::from(i)
    }

    /// Draw a topic for each of this thread's tokens from its word's
    /// plane row times its document's topic counts.
    fn gibbs(&self, t: u64) -> u64 {
        let share = self.words.len() / THREADS as usize;
        let words = &self.words[t as usize * share..(t as usize + 1) * share];
        let mut x = 0x1234_5678 ^ t;
        let mut doc = [0u32; TOPICS];
        let mut cumulative = [0f64; TOPICS];
        let mut drawn = 0u64;
        for (i, &w) in words.iter().enumerate() {
            if i % DOC_TOKENS == 0 {
                doc = [0; TOPICS];
            }
            let row = &self.plane[w as usize * TOPICS..(w as usize + 1) * TOPICS];
            let mut total = 0.0;
            for k in 0..TOPICS {
                total += (f64::from(row[k]) + 0.01) * self.inv_topic[k] * (f64::from(doc[k]) + 0.1);
                cumulative[k] = total;
            }
            let u = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let k = cumulative
                .iter()
                .position(|&c| c >= u)
                .unwrap_or(TOPICS - 1);
            doc[k] += 1;
            drawn += k as u64;
        }
        drawn
    }

    /// Seconds for [`ECHOES`] frames, each sent and read back over a
    /// loopback connection to a thread that echoes it.
    fn echo() -> std::io::Result<f64> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        // The listen backlog completes the connection before `accept`.
        let mut conn = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        std::thread::scope(|s| {
            // Echoes until `conn` closes, on any path out of the timing.
            let echoer = s.spawn(move || -> std::io::Result<()> {
                let mut buf = [0u8; FRAME];
                loop {
                    let n = peer.read(&mut buf)?;
                    if n == 0 {
                        return Ok(());
                    }
                    peer.write_all(&buf[..n])?;
                }
            });
            let timed = (|| {
                let frame = [7u8; FRAME];
                let mut back = [0u8; FRAME];
                let t0 = Instant::now();
                for _ in 0..ECHOES {
                    conn.write_all(&frame)?;
                    conn.read_exact(&mut back)?;
                }
                Ok(t0.elapsed().as_secs_f64())
            })();
            drop(conn);
            let echoed = echoer.join().expect("the echo thread does not panic");
            timed.and_then(|secs| echoed.map(|()| secs))
        })
    }

    /// One reading: every part once, in seconds.
    fn read(&self) -> std::io::Result<[f64; 4]> {
        Ok([
            Parts::on_both(Parts::alu),
            Parts::on_both(|t| self.chase(t)),
            Parts::on_both(|t| self.gibbs(t)),
            Parts::echo()?,
        ])
    }
}

/// The child's side: build the parts, warm them with one unreported
/// reading, then answer each line on stdin with one line of part times
/// until stdin closes.
pub fn serve() -> ExitCode {
    let parts = Parts::new();
    let mut out = std::io::stdout().lock();
    let answered = parts.read().and_then(|_| {
        for line in std::io::stdin().lock().lines() {
            line?;
            let [alu, chase, gibbs, echo] = parts.read()?;
            writeln!(out, "{alu} {chase} {gibbs} {echo}")?;
            out.flush()?;
        }
        Ok(())
    });
    match answered {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yardstick: {e}");
            ExitCode::from(2)
        }
    }
}

/// The parent's handle on the yardstick process. Dropping it closes the
/// pipe, which ends the child, and waits for it.
pub struct Yardstick {
    child: Child,
    ask: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
    /// Every reading's total, in seconds.
    pub readings: Vec<f64>,
}

impl Yardstick {
    pub fn start() -> Yardstick {
        let exe = std::env::current_exe().expect("the benchmark knows its executable");
        let mut child = Command::new(exe)
            .arg("yardstick")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the yardstick process");
        let ask = child.stdin.take();
        let answers = BufReader::new(child.stdout.take().expect("piped stdout"));
        Yardstick {
            child,
            ask,
            answers,
            readings: Vec::new(),
        }
    }

    /// Take one reading and keep its total.
    pub fn read(&mut self) {
        let ask = self.ask.as_mut().expect("the pipe is open until drop");
        writeln!(ask).expect("ask the yardstick for a reading");
        let mut line = String::new();
        self.answers
            .read_line(&mut line)
            .expect("read the yardstick's answer");
        let total: f64 = line
            .split_whitespace()
            .map(|v| v.parse::<f64>().expect("the yardstick answers in seconds"))
            .sum();
        assert!(total > 0.0, "the yardstick process ended: {line:?}");
        self.readings.push(total);
    }

    /// [`factors`] of the readings taken so far.
    pub fn factors(&self) -> Vec<f64> {
        factors(&self.readings)
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        drop(self.ask.take());
        let _ = self.child.wait();
    }
}

/// One factor per interval between consecutive readings: a time measured
/// in interval `i` times `factors[i]` is that time at the nominal host
/// speed, and a rate divided by it likewise. The faster of the two
/// readings around the interval stands for the host's speed in it, since
/// a burst of interference can only slow a reading down.
pub fn factors(readings: &[f64]) -> Vec<f64> {
    readings
        .windows(2)
        .map(|w| NOMINAL_SECS / w[0].min(w[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_take_the_faster_reading_of_each_interval() {
        assert_eq!(factors(&[0.05, 0.1, 0.1, 0.025]), vec![1.0, 0.5, 2.0]);
        assert!(factors(&[0.05]).is_empty());
    }
}
