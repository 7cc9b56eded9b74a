fn stamp() -> Instant { // alc-lint: allow(wall-clock, reason="real-time component, not on the simulation path")
    // alc-lint: allow(wall-clock, reason="real-time component, not on the simulation path")
    Instant::now()
}

use std::time::Instant as I; // alc-lint: allow(wall-clock, reason="real-time component, not on the simulation path")
fn stamp_aliased() -> I {
    I::now()
}
