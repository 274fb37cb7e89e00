package repro.partition

import repro.core.SetOps
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Shared helpers for the §4.3 algorithmic partitioners.
  *
  * The paper's simplification (§4.3 footnote 2): repeatedly computing the
  * exact φ(G) is prohibitive, so φ and the per-set membership costs are
  * approximated with randomly sampled group members.
  */
object DistSample {

  /** Average distance (1 − Sim) from set `sid` to ≤ `sample` random members
    * of `group`, excluding `sid` itself; 0 for an effectively empty group.
    */
  def avgDistTo(db: collection.IndexedSeq[Array[Int]], sid: Int, group: ArrayBuffer[Int],
                sample: Int, measure: SetOps.Measure, rnd: Random): Double = {
    var s = 0.0
    var taken = 0
    var tries = 0
    val maxTries = sample * 4
    while (taken < math.min(sample, group.length) && tries < maxTries) {
      val other = group(rnd.nextInt(group.length))
      if (other != sid) {
        s += 1.0 - measure.sim(db(sid), db(other))
        taken += 1
      }
      tries += 1
    }
    if (taken == 0) 0.0 else s / taken
  }

  /** Sampled estimate of φ(G) = Σ ordered-pairwise distances in the group. */
  def phiSampled(db: collection.IndexedSeq[Array[Int]], group: ArrayBuffer[Int],
                 pairSample: Int, measure: SetOps.Measure, rnd: Random): Double = {
    val n = group.length
    if (n < 2) return 0.0
    val m = math.min(pairSample.toLong, n.toLong * (n - 1)).toInt
    var s = 0.0
    var taken = 0
    while (taken < m) {
      val i = rnd.nextInt(n)
      var j = rnd.nextInt(n)
      while (j == i) j = rnd.nextInt(n)
      s += 1.0 - measure.sim(db(group(i)), db(group(j)))
      taken += 1
    }
    s / m * n * (n - 1)
  }

  /** Average distance over ≤ `pairSample` sampled cross pairs of two groups. */
  def avgCrossDist(db: collection.IndexedSeq[Array[Int]], a: ArrayBuffer[Int], b: ArrayBuffer[Int],
                   pairSample: Int, measure: SetOps.Measure, rnd: Random): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    var s = 0.0
    var taken = 0
    val m = math.min(pairSample, math.max(1, a.length * b.length))
    while (taken < m) {
      s += 1.0 - measure.sim(db(a(rnd.nextInt(a.length))), db(b(rnd.nextInt(b.length))))
      taken += 1
    }
    s / m
  }

  /** Mutable group structure with O(1) membership moves (swap-remove). */
  final class IndexedGroups(assignment: Array[Int], nGroups: Int) {
    val groups: Array[ArrayBuffer[Int]] = Array.fill(nGroups)(ArrayBuffer.empty[Int])
    private val pos = new Array[Int](assignment.length)
    val assign: Array[Int] = assignment.clone()
    for (sid <- assignment.indices) {
      pos(sid) = groups(assign(sid)).length
      groups(assign(sid)) += sid
    }

    def move(sid: Int, to: Int): Unit = {
      val from = assign(sid)
      if (from == to) return
      val g = groups(from)
      val p = pos(sid)
      val last = g.last
      g(p) = last
      pos(last) = p
      g.remove(g.length - 1)
      pos(sid) = groups(to).length
      groups(to) += sid
      assign(sid) = to
    }

    def toGrouping: repro.core.Grouping = new repro.core.Grouping(assign.clone(), nGroups)
  }
}
