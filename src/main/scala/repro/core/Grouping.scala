package repro.core

import scala.util.Random

/** A partitioning of a set database into non-overlapping groups (§3.1).
  *
  * @param assignment group id of each set, indexed by set id (0-based)
  * @param nGroups    number of groups; every assignment lies in [0, nGroups)
  */
final class Grouping(val assignment: Array[Int], val nGroups: Int) extends Serializable {
  require(nGroups > 0, "need at least one group")

  /** Sizes of each group. */
  val sizes: Array[Int] = {
    val s = new Array[Int](nGroups)
    var i = 0
    while (i < assignment.length) {
      val g = assignment(i)
      require(g >= 0 && g < nGroups, s"set $i assigned to out-of-range group $g")
      s(g) += 1
      i += 1
    }
    s
  }

  def nSets: Int = assignment.length

  /** Member set ids per group. */
  lazy val members: Array[Array[Int]] = {
    val out = Array.tabulate(nGroups)(g => new Array[Int](sizes(g)))
    val cursor = new Array[Int](nGroups)
    var i = 0
    while (i < assignment.length) {
      val g = assignment(i)
      out(g)(cursor(g)) = i
      cursor(g) += 1
      i += 1
    }
    out
  }

  /** Ratio of largest to ideal group size — 1.0 is perfectly balanced. */
  def imbalance: Double =
    if (nSets == 0) 1.0 else sizes.max.toDouble / math.max(1.0, nSets.toDouble / nGroups)
}

object Grouping {

  /** Exact GPO (Eq. 13): Σ_g Σ_{x,y ∈ G_g} (1 − Sim(x, y)) over ordered pairs.
    * Quadratic per group — only for tests / small inputs.
    */
  def gpoExact(db: Array[Array[Int]], grouping: Grouping,
               measure: SetOps.Measure = SetOps.Jaccard): Double = {
    var total = 0.0
    for (group <- grouping.members) {
      var i = 0
      while (i < group.length) {
        var j = 0
        while (j < group.length) {
          if (i != j) total += 1.0 - measure.sim(db(group(i)), db(group(j)))
          j += 1
        }
        i += 1
      }
    }
    total
  }

  /** Sampled GPO estimate: per group, average distance over up to
    * `pairSample` random ordered pairs, scaled to |G|(|G|−1). This is the
    * "approximate φ(G) with randomly selected sets" simplification of §4.3.
    */
  def gpoSampled(db: Array[Array[Int]], grouping: Grouping, pairSample: Int = 64,
                 measure: SetOps.Measure = SetOps.Jaccard, seed: Long = 17): Double = {
    val rnd = new Random(seed)
    var total = 0.0
    for (group <- grouping.members if group.length > 1) {
      val nPairs = group.length.toLong * (group.length - 1)
      val m = math.min(pairSample.toLong, nPairs).toInt
      var s = 0.0
      var taken = 0
      while (taken < m) {
        val i = rnd.nextInt(group.length)
        var j = rnd.nextInt(group.length)
        while (j == i) j = rnd.nextInt(group.length)
        s += 1.0 - measure.sim(db(group(i)), db(group(j)))
        taken += 1
      }
      total += s / m * nPairs
    }
    total
  }

  /** The U metric of Property 2 (Eq. 10): Σ_g |∪_{S∈G_g} S|. */
  def uMetric(db: Array[Array[Int]], grouping: Grouping): Long = {
    var total = 0L
    for (group <- grouping.members) {
      val union = new java.util.HashSet[Int]()
      for (sid <- group; t <- db(sid)) union.add(t)
      total += union.size
    }
    total
  }

  /** Random partitioning into n groups (used to initialize PAR-C and as a
    * pruning-efficiency floor in tests).
    */
  def random(nSets: Int, nGroups: Int, seed: Long = 7): Grouping = {
    val rnd = new Random(seed)
    new Grouping(Array.fill(nSets)(rnd.nextInt(nGroups)), nGroups)
  }
}
