// The commit round publishes the commit snapshot with
// no WAL append anywhere in the function — visibility without
// durability.

struct Fx;

impl Fx {
    fn commit_round(&self) {
        let snap = self.db.snapshot();
        self.published.publish(snap); //~ durable_before_visible
    }
}
