//! §5.3 — quantitative factor comparison and optimization
//! recommendations.
//!
//! The paper's headline contribution beyond the formulas is a ranking:
//! *which* factor is worth optimizing, and by how much. This module turns
//! Theorem 1 into that ranking for a concrete configuration, following
//! the paper's three recommendations:
//!
//! 1. keep server utilization below the cliff `ρ_S(ξ)`;
//! 2. engage load balancing only when the heaviest server exceeds the
//!    cliff;
//! 3. reduce the keys-per-request fan-out `N` rather than chase a tiny
//!    miss ratio once `N` is large.

use std::fmt;

use crate::{
    asymptotics::{db_scaling_regime, DbScalingRegime},
    cliff,
    latency::LatencyEstimate,
    params::{ArrivalPattern, LoadDistribution, ModelParams},
    ModelError,
};

/// How much one factor, improved in isolation, would move the end-user
/// latency point estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorImpact {
    /// Human-readable factor name (matches the paper's Table 2).
    pub factor: &'static str,
    /// The improvement that was applied, described for reporting.
    pub change: String,
    /// Point-estimate latency before the change (seconds).
    pub before: f64,
    /// Point-estimate latency after the change (seconds).
    pub after: f64,
}

impl FactorImpact {
    /// Relative improvement, `(before − after)/before`.
    #[must_use]
    fn relative_gain(&self) -> f64 {
        if self.before <= 0.0 {
            0.0
        } else {
            (self.before - self.after) / self.before
        }
    }
}

impl fmt::Display for FactorImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:<28} {:>8.1} µs → {:>8.1} µs ({:+.1}%)",
            self.factor,
            self.change,
            self.before * 1e6,
            self.after * 1e6,
            -self.relative_gain() * 100.0
        )
    }
}

/// A recommendation derived from the model, in the spirit of §5.3.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Short headline.
    pub headline: String,
    /// Supporting quantitative detail.
    pub detail: String,
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.headline, self.detail)
    }
}

/// Computes the latency impact of improving each factor of Table 2 in
/// isolation, sorted by descending gain.
///
/// The standard improvements are deliberately comparable in "effort":
/// halving the concurrency probability, halving the burst degree,
/// shedding 20% of the load, raising the service rate 20%, halving the
/// hot-server excess, halving the miss ratio, and halving `N`.
///
/// # Errors
///
/// Propagates estimation errors for the base configuration; factors whose
/// *improved* configuration still fails (cannot happen for improvements)
/// are skipped.
pub fn factor_impacts(params: &ModelParams) -> Result<Vec<FactorImpact>, ModelError> {
    let base = LatencyEstimate::compute(params)?.point();
    let mut out = Vec::new();

    let mut push = |factor: &'static str, change: String, alt: Result<ModelParams, ModelError>| {
        if let Ok(p) = alt {
            if let Ok(est) = LatencyEstimate::compute(&p) {
                out.push(FactorImpact {
                    factor,
                    change,
                    before: base,
                    after: est.point(),
                });
            }
        }
    };

    // q: halve the concurrency probability.
    {
        let q = params.concurrency();
        let alt = rebuild(params, |b| b.concurrency(q / 2.0));
        push("concurrency q", format!("q: {q} → {}", q / 2.0), alt);
    }
    // ξ: halve the burst degree when the arrival law exposes one.
    if let Some(xi) = params.arrival().burst_degree() {
        if xi > 0.0 {
            let alt = rebuild(params, |b| {
                b.arrival(ArrivalPattern::GeneralizedPareto { xi: xi / 2.0 })
            });
            push("burst degree ξ", format!("ξ: {xi} → {}", xi / 2.0), alt);
        }
    }
    // λ: shed 20% of the load.
    {
        let lam = params.total_key_rate();
        let alt = rebuild(params, |b| b.total_key_rate(lam * 0.8));
        push("arrival rate λ", "Λ → 0.8·Λ".to_string(), alt);
    }
    // μ_S: 20% faster servers.
    {
        let mu = params.service_rate();
        let alt = rebuild(params, |b| b.service_rate(mu * 1.2));
        push("service rate μ_S", "μ_S → 1.2·μ_S".to_string(), alt);
    }
    // p1: halve the hot server's excess over balanced.
    {
        let m = params.servers();
        if let Ok(p1) = params.load().p1(m) {
            let balanced = 1.0 / m as f64;
            if p1 > balanced + 1e-9 {
                let new_p1 = balanced + (p1 - balanced) / 2.0;
                let alt = rebuild(params, |b| {
                    b.load(LoadDistribution::HotServer { p1: new_p1 })
                });
                push(
                    "load imbalance p1",
                    format!("p1: {p1:.2} → {new_p1:.2}"),
                    alt,
                );
            }
        }
    }
    // r: halve the miss ratio.
    {
        let r = params.miss_ratio();
        if r > 0.0 {
            let alt = params.with_miss_ratio(r / 2.0);
            push("miss ratio r", format!("r: {r} → {}", r / 2.0), alt);
        }
    }
    // N: halve the fan-out.
    {
        let n = params.keys_per_request();
        if n > 1 {
            let alt = Ok(params.with_keys_per_request(n / 2));
            push("keys per request N", format!("N: {n} → {}", n / 2), alt);
        }
    }

    out.sort_by(|a, b| b.relative_gain().total_cmp(&a.relative_gain()));
    Ok(out)
}

fn rebuild(
    params: &ModelParams,
    f: impl FnOnce(crate::params::ModelParamsBuilder) -> crate::params::ModelParamsBuilder,
) -> Result<ModelParams, ModelError> {
    let b = ModelParams::builder()
        .keys_per_request(params.keys_per_request())
        .servers(params.servers())
        .load(params.load().clone())
        .arrival(params.arrival())
        .total_key_rate(params.total_key_rate())
        .concurrency(params.concurrency())
        .service_rate(params.service_rate())
        .miss_ratio(params.miss_ratio())
        .db_service_rate(params.db_service_rate())
        .network_latency(params.network_latency());
    f(b).build()
}

/// Produces the paper's §5.3-style recommendations for a configuration.
///
/// # Errors
///
/// Propagates estimation errors.
pub fn recommendations(params: &ModelParams) -> Result<Vec<Recommendation>, ModelError> {
    let mut recs = Vec::new();
    let xi = params.arrival().burst_degree().unwrap_or(0.0);
    let cliff = cliff::cliff_utilization(xi, params.concurrency())?;
    let peak = params.peak_utilization()?;
    let mean_util = params.total_key_rate() / (params.servers() as f64 * params.service_rate());

    // Recommendation 1: utilization headroom.
    if peak > cliff {
        recs.push(Recommendation {
            headline: "reduce peak server utilization".into(),
            detail: format!(
                "heaviest server runs at {:.0}% utilization, beyond the latency cliff \
                 ρ_S(ξ={xi}) ≈ {:.0}%; add capacity or shed load",
                peak * 100.0,
                cliff * 100.0
            ),
        });
    } else {
        recs.push(Recommendation {
            headline: "utilization is below the cliff".into(),
            detail: format!(
                "heaviest server at {:.0}% vs cliff {:.0}%; {:.0} percentage points of \
                 headroom remain before latency degrades sharply",
                peak * 100.0,
                cliff * 100.0,
                (cliff - peak) * 100.0
            ),
        });
    }

    // Recommendation 2: load balancing only when the hot server crosses
    // the cliff while the average does not.
    if peak > cliff && mean_util < cliff {
        recs.push(Recommendation {
            headline: "enable load balancing".into(),
            detail: format!(
                "imbalance pushes the hot server past the cliff ({:.0}% > {:.0}%) while the \
                 average utilization is only {:.0}%; rebalancing alone restores headroom",
                peak * 100.0,
                cliff * 100.0,
                mean_util * 100.0
            ),
        });
    } else if peak <= cliff {
        recs.push(Recommendation {
            headline: "load balancing unnecessary".into(),
            detail: format!(
                "even the heaviest server ({:.0}%) sits below the cliff ({:.0}%); \
                 per the paper, balancing adds nothing until the cliff is crossed",
                peak * 100.0,
                cliff * 100.0
            ),
        });
    }

    // Recommendation 3: N vs r.
    match db_scaling_regime(params.keys_per_request(), params.miss_ratio()) {
        DbScalingRegime::LogarithmicInMissRatio => recs.push(Recommendation {
            headline: "shrink the request fan-out, not the miss ratio".into(),
            detail: format!(
                "with N = {} keys per request, misses are inevitable and E[T_D] grows only \
                 logarithmically as r falls; halving N buys more than halving r",
                params.keys_per_request()
            ),
        }),
        DbScalingRegime::LinearInMissRatio => recs.push(Recommendation {
            headline: "miss-ratio work pays off linearly".into(),
            detail: format!(
                "with N = {} keys per request, most requests see no miss at all; here \
                 E[T_D] = Θ(r) and cache improvements translate directly",
                params.keys_per_request()
            ),
        }),
    }

    Ok(recs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ModelParams {
        ModelParams::builder().build().unwrap()
    }

    #[test]
    fn impacts_cover_all_factors() {
        let impacts = factor_impacts(&base()).unwrap();
        let names: Vec<_> = impacts.iter().map(|i| i.factor).collect();
        for expect in [
            "concurrency q",
            "burst degree ξ",
            "arrival rate λ",
            "service rate μ_S",
            "miss ratio r",
            "keys per request N",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        // Balanced base config ⇒ no p1 row.
        assert!(!names.contains(&"load imbalance p1"));
    }

    #[test]
    fn impacts_sorted_by_gain_and_all_improvements() {
        let impacts = factor_impacts(&base()).unwrap();
        let mut prev = f64::INFINITY;
        for i in &impacts {
            assert!(i.relative_gain() <= prev + 1e-12);
            assert!(
                i.after <= i.before + 1e-12,
                "{} made things worse",
                i.factor
            );
            prev = i.relative_gain();
            assert!(!i.to_string().is_empty());
        }
    }

    #[test]
    fn unbalanced_config_reports_p1() {
        let p = ModelParams::builder()
            .load(LoadDistribution::HotServer { p1: 0.6 })
            .total_key_rate(80_000.0)
            .build()
            .unwrap();
        let impacts = factor_impacts(&p).unwrap();
        assert!(impacts.iter().any(|i| i.factor == "load imbalance p1"));
    }

    #[test]
    fn base_recommendations_match_paper_story() {
        // Base config: ρ = 78% — just past the ~75% cliff for ξ=0.15, so
        // the model recommends reducing utilization; and N = 150 is the
        // logarithmic regime, so it recommends reducing N over r.
        let recs = recommendations(&base()).unwrap();
        let text = recs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("reduce peak server utilization"), "{text}");
        assert!(text.contains("fan-out"), "{text}");
    }

    #[test]
    fn light_load_recommends_nothing_drastic() {
        let p = ModelParams::builder()
            .key_rate_per_server(20_000.0)
            .build()
            .unwrap();
        let recs = recommendations(&p).unwrap();
        let text = recs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("below the cliff"), "{text}");
        assert!(text.contains("load balancing unnecessary"), "{text}");
    }

    #[test]
    fn small_fanout_flips_db_recommendation() {
        let p = ModelParams::builder().keys_per_request(4).build().unwrap();
        let recs = recommendations(&p).unwrap();
        let text = recs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("linearly"), "{text}");
    }

    #[test]
    fn n_is_the_dominant_factor_in_base_config() {
        // The paper's second insight: with numerous keys and tiny r,
        // halving N beats halving r.
        let impacts = factor_impacts(&base()).unwrap();
        let gain = |name: &str| {
            impacts
                .iter()
                .find(|i| i.factor == name)
                .map(|i| i.relative_gain())
                .unwrap()
        };
        assert!(gain("keys per request N") > gain("miss ratio r"));
    }
}
