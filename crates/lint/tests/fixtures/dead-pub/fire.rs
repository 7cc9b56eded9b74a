pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn mean(&self) -> f64 {
        self.mean
    }

    // Only the unit test below calls it.
    pub fn variance(&self) -> f64 {
        self.m2 / self.n as f64
    }

    // Its own file calls it, so it needs no `pub`.
    pub fn spread(&self) -> f64 {
        self.variance().sqrt() / self.mean()
    }

    // Visible in the crate only: outside the rule.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }
}

pub const DEFAULT_WINDOW: usize = 64;
pub static mut TRACE: bool = false;

#[cfg(test)]
mod tests {
    pub fn helper() {}

    #[test]
    fn variance_of_nothing() {
        let w = super::Welford { n: 1, mean: 0.0, m2: 0.0 };
        assert_eq!(w.variance(), 0.0);
    }
}
