package repro.partition

import repro.core.{Grouping, SetOps}
import scala.util.Random

/** PAR-C — centroid-based partitioning (§4.3.2): random initialization,
  * then relocation passes using the "first-improvement" variant — a set is
  * moved to the first group whose Δ(S, G_i, G_j) improves the GPO, with
  * membership costs approximated on sampled members (§4.3 footnote 2).
  */
object ParC {

  /** @param memberSample members sampled per group when estimating the
    *                     per-set membership cost
    * @param maxPasses    relocation passes over the database (the loop also
    *                     stops as soon as a pass moves nothing)
    */
  final case class Config(memberSample: Int = 12, maxPasses: Int = 4,
                          measure: SetOps.Measure = SetOps.Jaccard, seed: Long = 53)

  def partition(db: collection.IndexedSeq[Array[Int]], nGroups: Int,
                cfg: Config = Config()): Grouping = {
    val n = db.length
    val rnd = new Random(cfg.seed)
    val init = Grouping.random(n, nGroups, cfg.seed)
    val state = new DistSample.IndexedGroups(init.assignment, nGroups)

    var pass = 0
    var moved = true
    while (pass < cfg.maxPasses && moved) {
      moved = false
      var sid = 0
      while (sid < n) {
        val gi = state.assign(sid)
        if (state.groups(gi).length > 1) {
          // GPO contribution of S in its group: 2(|G|−1)·avg distance; the
          // factor 2 (ordered pairs) cancels in the comparison.
          val stayCost = (state.groups(gi).length - 1) *
            DistSample.avgDistTo(db, sid, state.groups(gi), cfg.memberSample, cfg.measure, rnd)
          // first-improvement scan, starting at a random group
          val offset = rnd.nextInt(nGroups)
          var j = 0
          var done = false
          while (j < nGroups && !done) {
            val gj = (j + offset) % nGroups
            if (gj != gi) {
              val moveCost = state.groups(gj).length *
                DistSample.avgDistTo(db, sid, state.groups(gj), cfg.memberSample, cfg.measure, rnd)
              if (moveCost < stayCost) {
                state.move(sid, gj)
                moved = true
                done = true
              }
            }
            j += 1
          }
        }
        sid += 1
      }
      pass += 1
    }
    state.toGrouping
  }
}
