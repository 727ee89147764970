import json,sys,statistics as st
from collections import defaultdict
rows=[json.loads(l) for l in open(sys.argv[1]) if l.startswith('{')]
d=defaultdict(lambda: defaultdict(list))
fails=defaultdict(int)
for r in rows:
    res=r['result']
    for k,v in res['metrics'].items():
        d[(r['workload'],k)][r['side']].append(v['value'])
    fails[(r['workload'],r['side'])]+=res['failed']
better={'setup_s':-1,'ops_s':1,'p50_ms':-1,'p95_ms':-1,'cpu_ms_per_op':-1,'rss_mb':-1}
bound={'setup_s':.25,'ops_s':.25,'p50_ms':.25,'p95_ms':.25,'cpu_ms_per_op':.25,'rss_mb':.15}
def q(xs):
    xs=sorted(xs); n=len(xs)
    return st.median(xs), xs[n//4], xs[(3*n)//4]
print("%-12s %-14s %10s %10s %8s %9s %s"%("workload","metric","parent","change","delta","p.IQR/med","pairs(change better)"))
for (w,k) in sorted(d):
    if k not in better: continue
    p=d[(w,k)]['parent']; c=d[(w,k)]['change']
    pm,pl,ph=q(p); cm,cl,ch=q(c)
    delta=(cm-pm)/pm
    wins=sum(1 for a,b in zip(p,c) if (b-a)*better[k]>0)
    worse = -delta*better[k]
    flag = 'REGRESS' if worse>bound[k] else ''
    print("%-12s %-14s %10.4f %10.4f %+7.1f%% %8.1f%% %d/%d %s"%(w,k,pm,cm,100*delta,100*(ph-pl)/pm,wins,len(p),flag))
print({k:v for k,v in fails.items() if v})
