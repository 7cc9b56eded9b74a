fn stamp() -> Instant {
    Instant::now()
}

use std::time::Instant as I;
fn stamp_aliased() -> I {
    I::now()
}
