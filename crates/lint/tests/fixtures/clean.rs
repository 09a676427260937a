// Fixture: engine code that satisfies every rule.
use hail_sync::{LockRank, OrderedMutex};

pub struct Good {
    // "Mutex" in a comment or string is fine: the scanner strips both.
    state: OrderedMutex<u32>,
}

pub fn make() -> Good {
    Good {
        state: OrderedMutex::new(LockRank::MapScratch, "fixture-state", 0),
    }
}

pub fn bump(g: &Good) -> u32 {
    let mut v = g.state.acquire();
    *v += 1;
    let label = "a Mutex by name only";
    let _ = label;
    *v
}

pub fn raw_literal() {
    let raw = r"RwLock in a raw string";
    let _ = raw;
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn test_code_may_use_raw_locks() {
        let m = Mutex::new(1u32);
        assert_eq!(*m.lock().unwrap(), 1);
        let _ = std::env::var("HAIL_TEST_ONLY");
    }
}
