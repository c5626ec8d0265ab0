//! Process-level probes read from `/proc/self`: CPU time and peak resident
//! set. No libc binding is available offline, so these parse the text
//! files; on a host without procfs they report `NaN` and the run is marked
//! incorrect rather than inventing a number. Thread placement, which has no
//! text file, is two raw system calls.

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI this repository targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, threads that
/// have already exited included.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(f64::NAN, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The CPUs (of the first 64) the calling thread may run on, as a bit
/// mask; `None` where the call is not available.
pub fn allowed_cpus() -> Option<u64> {
    let mut mask = [0u64; 16];
    let bytes = affinity_syscall(204, &mut mask)?; // sched_getaffinity
    (bytes > 0).then_some(mask[0])
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to_cpu(cpu: u32) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    affinity_syscall(203, &mut mask).is_some() // sched_setaffinity
}

/// `sched_{get,set}affinity(0, sizeof mask, mask)` on the calling thread;
/// the return value when it is not an error.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: usize, mask: &mut [u64; 16]) -> Option<usize> {
    let ret: isize;
    // SAFETY: both calls only read or write `mask`, whose length in bytes
    // is passed beside it and which outlives the call; the instruction
    // clobbers rcx and r11, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    usize::try_from(ret).ok()
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_number: usize, _mask: &mut [u64; 16]) -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(175));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn pinning_narrows_the_allowed_set_to_one_cpu() {
        // On its own thread, so the test harness keeps its CPUs.
        std::thread::spawn(|| {
            let Some(allowed) = allowed_cpus() else {
                return; // no such call here: nothing to check
            };
            let cpu = allowed.trailing_zeros();
            assert!(pin_to_cpu(cpu));
            assert_eq!(allowed_cpus(), Some(1 << cpu));
            // A thread spawned now inherits the one CPU.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, Some(1 << cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }
}
