//! The operator context: the paper's string-keyed global-variable store
//! (`context.getByKey("weights")` in Listings 1–10), given typed fast paths
//! for the fields every GD algorithm touches.

use std::collections::HashMap;

use ml4all_linalg::DenseVector;

use crate::operators::Support;

/// A value stored in the context's extras map.
#[derive(Debug, Clone, PartialEq)]
pub enum Extra {
    /// Scalar parameter (e.g. the line-search `step`).
    Scalar(f64),
    /// Vector parameter (e.g. SVRG's `weightsBar`).
    Vector(DenseVector),
    /// Boolean flag (e.g. line search's `isStepSizeIter`).
    Flag(bool),
    /// Integer parameter (e.g. SVRG's update frequency `m`).
    Int(u64),
}

/// Global state shared by the seven operators during one GD run.
///
/// The hot fields — model vector, iteration counter, dimensionality — are
/// typed struct members; algorithm-specific parameters (SVRG's `weightsBar`,
/// line search's `beta`) live in the string-keyed extras map, mirroring the
/// paper's `Context` UDF API.
#[derive(Debug, Clone)]
pub struct Context {
    /// The model vector `w`.
    pub weights: DenseVector,
    /// Current iteration, 1-based during the loop (0 before the first).
    pub iteration: u64,
    /// Feature-space dimensionality.
    pub dims: usize,
    extras: HashMap<String, Extra>,
}

impl Context {
    /// Fresh context for a `dims`-dimensional model, weights at zero.
    pub fn new(dims: usize) -> Self {
        Self {
            weights: DenseVector::zeros(dims),
            iteration: 0,
            dims,
            extras: HashMap::new(),
        }
    }

    /// Store an extra by key (paper: `context.put(key, value)`).
    pub fn put(&mut self, key: impl Into<String>, value: Extra) {
        self.extras.insert(key.into(), value);
    }

    /// Fetch an extra by key (paper: `context.getByKey(key)`).
    pub fn get(&self, key: &str) -> Option<&Extra> {
        self.extras.get(key)
    }

    /// Typed scalar accessor.
    pub fn scalar(&self, key: &str) -> Option<f64> {
        match self.extras.get(key) {
            Some(Extra::Scalar(v)) => Some(*v),
            _ => None,
        }
    }

    /// Typed vector accessor.
    pub fn vector(&self, key: &str) -> Option<&DenseVector> {
        match self.extras.get(key) {
            Some(Extra::Vector(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed flag accessor.
    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.extras.get(key) {
            Some(Extra::Flag(v)) => Some(*v),
            _ => None,
        }
    }

    /// Typed integer accessor.
    pub fn int(&self, key: &str) -> Option<u64> {
        match self.extras.get(key) {
            Some(Extra::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Set `weights` to `dims` zeros, in place when the width already
    /// matches (a fresh context's weights are reused, not replaced).
    pub fn zero_weights(&mut self) {
        if self.weights.dim() == self.dims {
            self.weights.fill_zero();
        } else {
            self.weights = DenseVector::zeros(self.dims);
        }
    }

    /// `true` once any weight is non-finite — the divergence detector.
    pub fn weights_diverged(&self) -> bool {
        Support::All.any_non_finite(self.weights.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_context_is_zeroed() {
        let ctx = Context::new(5);
        assert_eq!(ctx.weights.dim(), 5);
        assert_eq!(ctx.weights.l1_norm(), 0.0);
        assert_eq!(ctx.iteration, 0);
        assert!(!ctx.weights_diverged());
    }

    #[test]
    fn extras_round_trip_by_type() {
        let mut ctx = Context::new(2);
        ctx.put("step", Extra::Scalar(1.0));
        ctx.put("weightsBar", Extra::Vector(DenseVector::zeros(2)));
        ctx.put("isStepSizeIter", Extra::Flag(true));
        ctx.put("m", Extra::Int(50));
        assert_eq!(ctx.scalar("step"), Some(1.0));
        assert_eq!(ctx.vector("weightsBar").unwrap().dim(), 2);
        assert_eq!(ctx.flag("isStepSizeIter"), Some(true));
        assert_eq!(ctx.int("m"), Some(50));
        // Wrong-type access returns None instead of panicking.
        assert_eq!(ctx.scalar("m"), None);
        assert_eq!(ctx.int("step"), None);
        assert_eq!(ctx.scalar("missing"), None);
    }

    #[test]
    fn divergence_is_detected() {
        let mut ctx = Context::new(2);
        ctx.weights[0] = f64::NAN;
        assert!(ctx.weights_diverged());
        ctx.weights[0] = f64::INFINITY;
        assert!(ctx.weights_diverged());
    }
}
