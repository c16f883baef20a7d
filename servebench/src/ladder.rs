//! The capacity ladder: climb the session count in geometric steps until
//! a rung is not conformant, then bisect between the last conformant rung
//! and the first one that was not, until the knee is resolved.

/// The verdict on one rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every session completed with `Y = X`, nothing was rejected or
    /// overflowed, and the tail effort ratio stayed within the limit.
    Conformant,
    /// The server missed one of those conditions.
    Failed,
    /// The generator ran late by more than `c2·tick`: the rung says
    /// nothing about the server and is not counted.
    GeneratorBound,
}

/// Search settings.
#[derive(Clone, Copy, Debug)]
pub struct Search {
    /// First rung.
    pub start: usize,
    /// Geometric factor of the climb (> 1).
    pub factor: f64,
    /// Highest rung ever probed.
    pub max: usize,
    /// Bisection stops once `(hi − lo) ≤ resolution · lo`.
    pub resolution: f64,
}

/// The outcome of one search.
#[derive(Clone, Debug, PartialEq)]
pub struct Knee {
    /// The largest conformant session count found.
    pub capacity: usize,
    /// The first rung above it that was not conformant (`None` when the
    /// climb hit `max` without failing).
    pub above: Option<(usize, Verdict)>,
    /// Every rung probed, in order.
    pub probes: Vec<(usize, Verdict)>,
}

/// Runs the search, calling `probe` once per rung. Returns `None` when
/// the first rung is already not conformant.
///
/// # Errors
///
/// Whatever `probe` returns as an error ends the search.
pub fn find_knee<E>(
    search: Search,
    mut probe: impl FnMut(usize) -> Result<Verdict, E>,
) -> Result<Option<Knee>, E> {
    let mut probes = Vec::new();
    let mut rung = |n: usize, probes: &mut Vec<(usize, Verdict)>| -> Result<Verdict, E> {
        let v = probe(n)?;
        probes.push((n, v));
        Ok(v)
    };

    let mut lo = search.start.max(1);
    if rung(lo, &mut probes)? != Verdict::Conformant {
        return Ok(None);
    }
    let mut hi = None;
    while lo < search.max {
        // Always climb by at least one session, whatever the factor.
        let next = ((lo as f64 * search.factor) as usize)
            .max(lo + 1)
            .min(search.max);
        match rung(next, &mut probes)? {
            Verdict::Conformant => lo = next,
            v => {
                hi = Some((next, v));
                break;
            }
        }
    }
    while let Some((top, _)) = hi {
        if (top - lo) as f64 <= search.resolution * lo as f64 || top - lo <= 1 {
            break;
        }
        let mid = lo + (top - lo) / 2;
        match rung(mid, &mut probes)? {
            Verdict::Conformant => lo = mid,
            v => hi = Some((mid, v)),
        }
    }
    Ok(Some(Knee {
        capacity: lo,
        above: hi,
        probes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn search() -> Search {
        Search {
            start: 16,
            factor: 2.0,
            max: 8192,
            resolution: 0.05,
        }
    }

    fn knee_at(true_knee: usize) -> Knee {
        find_knee(search(), |n| {
            Ok::<_, Infallible>(if n <= true_knee {
                Verdict::Conformant
            } else {
                Verdict::Failed
            })
        })
        .expect("infallible")
        .expect("first rung passes")
    }

    #[test]
    fn climbs_geometrically_then_bisects_to_five_percent() {
        let k = knee_at(700);
        let rungs: Vec<usize> = k.probes.iter().map(|p| p.0).collect();
        assert_eq!(&rungs[..7], &[16, 32, 64, 128, 256, 512, 1024]);
        assert!(k.capacity <= 700);
        let (above, v) = k.above.expect("a failing rung");
        assert_eq!(v, Verdict::Failed);
        assert!(above > 700);
        assert!((above - k.capacity) as f64 <= 0.05 * k.capacity as f64);
    }

    #[test]
    fn resolves_many_knees() {
        for true_knee in [16, 17, 40, 63, 64, 65, 333, 1000, 4095] {
            let k = knee_at(true_knee);
            assert!(k.capacity <= true_knee, "{true_knee}: {k:?}");
            let (above, _) = k.above.expect("fails above");
            assert!(above > true_knee);
            assert!(
                (above - k.capacity) as f64 <= 0.05 * k.capacity as f64 || above - k.capacity <= 1,
                "{true_knee}: {k:?}"
            );
        }
    }

    #[test]
    fn a_generator_bound_rung_is_not_counted() {
        // Conformant up to 600, but the generator cannot keep pace beyond
        // 400: the knee must stop below the first generator-bound rung.
        let k = find_knee(search(), |n| {
            Ok::<_, Infallible>(if n > 400 {
                Verdict::GeneratorBound
            } else if n <= 600 {
                Verdict::Conformant
            } else {
                Verdict::Failed
            })
        })
        .expect("infallible")
        .expect("first rung passes");
        assert!(k.capacity <= 400);
        assert_eq!(k.above.expect("stopped").1, Verdict::GeneratorBound);
        assert!(k
            .probes
            .iter()
            .all(|&(n, v)| v != Verdict::Conformant || n <= 400));
    }

    #[test]
    fn a_fractional_factor_climbs_in_smaller_steps() {
        let s = Search {
            start: 400,
            factor: 1.25,
            ..search()
        };
        let k = find_knee(s, |n| {
            Ok::<_, Infallible>(if n <= 700 {
                Verdict::Conformant
            } else {
                Verdict::Failed
            })
        })
        .expect("infallible")
        .expect("first rung passes");
        let rungs: Vec<usize> = k.probes.iter().map(|p| p.0).collect();
        assert_eq!(&rungs[..4], &[400, 500, 625, 781]);
        let (above, _) = k.above.expect("fails above");
        assert!(k.capacity <= 700 && above > 700);
        assert!((above - k.capacity) as f64 <= 0.05 * k.capacity as f64);
    }

    #[test]
    fn failing_first_rung_has_no_knee() {
        let k = find_knee(search(), |_| Ok::<_, Infallible>(Verdict::Failed)).expect("ok");
        assert_eq!(k, None);
    }

    #[test]
    fn climb_stops_at_the_cap() {
        let k = knee_at(usize::MAX);
        assert_eq!(k.capacity, 8192);
        assert_eq!(k.above, None);
    }

    #[test]
    fn probe_errors_end_the_search() {
        let r = find_knee(search(), |n| {
            if n > 100 {
                Err("boom")
            } else {
                Ok(Verdict::Conformant)
            }
        });
        assert_eq!(r, Err("boom"));
    }
}
