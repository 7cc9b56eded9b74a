pub struct Model {
    rate: f64,
}

impl Model {
    // alc-lint: allow(dead-pub, reason="the embedding example outside this workspace calls it")
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

// alc-lint: allow(dead-pub, reason="embedders outside this workspace read the default")
pub const DEFAULT_RATE: f64 = 1.0;
